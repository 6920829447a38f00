// Test fixture for the forcefirst analyzer, discproc vocabulary: a
// miniature DISCPROCESS with the checkpoint-before-update write discipline.
package discproc

type Volume struct{}

func (*Volume) Write(name string, b []byte) error { return nil }
func (*Volume) Delete(name string) error          { return nil }

type File struct{}

func (*File) ForceWrite(k, v string) {}
func (*File) ForceDelete(k string)   {}

// Ctx has a value receiver, as the pair package's does: a checkpoint
// through a value and one through a pointer must both count.
type Ctx struct{}

func (Ctx) Checkpoint(rec any) error { return nil }

type app struct {
	vol *Volume
}

// commitMutation is the blessed wrapper: checkpoint first, then apply.
func (a *app) commitMutation(ctx *Ctx, rec any) error {
	if err := ctx.Checkpoint(rec); err != nil {
		return err
	}
	return a.vol.Write("f", nil)
}

// goodWrapper routes the mutation through the wrapper.
func (a *app) goodWrapper(ctx *Ctx) error {
	return a.commitMutation(ctx, nil)
}

// goodInline checkpoints explicitly before mutating.
func (a *app) goodInline(ctx *Ctx, f *File) error {
	if err := ctx.Checkpoint(nil); err != nil {
		return err
	}
	f.ForceWrite("k", "v")
	return nil
}

// goodInlineValue is goodInline with the context held by value.
func (a *app) goodInlineValue(ctx Ctx, f *File) error {
	if err := ctx.Checkpoint(nil); err != nil {
		return err
	}
	f.ForceWrite("k", "v")
	return nil
}

// applyVolume is a replay path: its record was checkpointed when first
// produced, so re-applying without a fresh checkpoint is legal.
func (a *app) applyVolume(op any) {
	_ = a.vol.Write("f", nil)
}

// badWriteThenCheckpoint mutates before shipping intent to the backup — a
// primary failure between the two lines loses the update's recoverability.
func (a *app) badWriteThenCheckpoint(ctx *Ctx) error {
	if err := a.vol.Write("f", []byte("x")); err != nil { // want "Volume.Write mutates the volume without a preceding checkpoint"
		return err
	}
	return ctx.Checkpoint(nil)
}

// badWriteThenCheckpointValue is badWriteThenCheckpoint with the context
// held by value.
func (a *app) badWriteThenCheckpointValue(ctx Ctx, f *File) error {
	f.ForceWrite("k", "v") // want "File.ForceWrite mutates the volume without a preceding checkpoint"
	return ctx.Checkpoint(nil)
}

// badNoCheckpoint never checkpoints at all.
func (a *app) badNoCheckpoint(f *File) {
	f.ForceDelete("k") // want "File.ForceDelete mutates the volume without a preceding checkpoint"
}

// badDelete covers the volume delete path.
func (a *app) badDelete() error {
	return a.vol.Delete("f") // want "Volume.Delete mutates the volume without a preceding checkpoint"
}

// handlePerCase: a checkpoint inside one case must not license a mutation
// in a sibling case — each case is its own request path.
func (a *app) handlePerCase(ctx *Ctx, kind int) error {
	switch kind {
	case 1:
		if err := ctx.Checkpoint(nil); err != nil {
			return err
		}
		return a.vol.Write("f", nil)
	case 2:
		return a.vol.Write("f", nil) // want "Volume.Write mutates the volume without a preceding checkpoint"
	}
	return nil
}

// handlePrologue: a checkpoint before the switch licenses every case.
func (a *app) handlePrologue(ctx *Ctx, f *File, kind int) error {
	if err := ctx.Checkpoint(nil); err != nil {
		return err
	}
	switch kind {
	case 1:
		return a.vol.Write("f", nil)
	case 2:
		f.ForceDelete("k")
	}
	return nil
}
