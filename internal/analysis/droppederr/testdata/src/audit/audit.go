// Test fixture for the droppederr analyzer: silently discarded errors on
// the reliability path.
package audit

type Client struct{}

type AppendReq struct{ Images []byte }

func (*Client) Append(fromCPU int, req *AppendReq) error { return nil }
func (*Client) Force(cpu int, upTo uint64) error         { return nil }

// Ctx has a value receiver, as the pair package's does: a call through a
// value and a call through a pointer must both be seen.
type Ctx struct{}

func (Ctx) Checkpoint(rec any) error { return nil }

type Process struct{}

func (*Process) Send(addr, kind, payload any) error { return nil }
func (*Process) Forward(addr, m any) error          { return nil }

func bad(c *Client, ctx *Ctx, p *Process) {
	c.Force(0, 1)         // want "error from Client.Force dropped"
	ctx.Checkpoint(nil)   // want "error from Ctx.Checkpoint dropped"
	p.Send(nil, nil, nil) // want "error from Process.Send dropped"
	c.Append(0, nil)      // want "error from Client.Append dropped"
	p.Forward(nil, nil)   // want "error from Process.Forward dropped"
}

func badValue(ctx Ctx) {
	ctx.Checkpoint(nil) // want "error from Ctx.Checkpoint dropped"
}

func badGoValue(ctx Ctx) {
	go ctx.Checkpoint(nil) // want "error from Ctx.Checkpoint vanishes with the goroutine"
}

func badGo(p *Process) {
	go p.Send(nil, nil, nil) // want "error from Process.Send vanishes with the goroutine"
}

func good(c *Client, ctx Ctx, p *Process) error {
	if err := ctx.Checkpoint(nil); err != nil {
		return err
	}
	// An explicit discard is visible intent, not a silent drop.
	_ = p.Send(nil, nil, nil)
	if err := c.Append(0, &AppendReq{}); err != nil {
		return err
	}
	return c.Force(0, 1)
}
