package encompass

import (
	"fmt"
	"time"

	"encompass/internal/appserver"
	"encompass/internal/tcp"
	"encompass/internal/txid"
)

// Handler is a context-free application server function (re-exported from
// the application-control layer).
type Handler = appserver.Handler

// ServerClassConfig configures a class of application servers on a node.
type ServerClassConfig struct {
	Class        string
	Handler      Handler
	MinInstances int
	MaxInstances int
}

// StartServerClass launches a class of context-free application servers on
// the node, managed by application control (dynamic instance creation and
// deletion).
func (n *Node) StartServerClass(cfg ServerClassConfig) (*appserver.Class, error) {
	return appserver.Start(n.Msg, appserver.Config{
		Class:        cfg.Class,
		Handler:      cfg.Handler,
		MinInstances: cfg.MinInstances,
		MaxInstances: cfg.MaxInstances,
	})
}

// CallServerFrom is CallServer with an explicit originating CPU, so load
// generators can spread requests over the node's processors instead of
// funnelling every one through the first up processor.
func (n *Node) CallServerFrom(cpu int, node, class string, tx txid.ID, fields map[string]string, timeout time.Duration) (map[string]string, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return appserver.CallTimeout(n.Msg, n.TMF, cpu, node, class, tx, fields, timeout)
}

// CallServer sends one transaction request to a server class (node may be
// empty for the local node), as the SEND verb does, from the first up CPU.
func (n *Node) CallServer(node, class string, tx txid.ID, fields map[string]string, timeout time.Duration) (map[string]string, error) {
	cpu, ok := n.HW.FirstUpCPU()
	if !ok {
		return nil, fmt.Errorf("encompass: node %s has no up CPUs", n.Name)
	}
	return n.CallServerFrom(cpu, node, class, tx, fields, timeout)
}

// TCPConfig configures a Terminal Control Process on a node.
type TCPConfig struct {
	Name                  string
	PrimaryCPU, BackupCPU int
	MaxRestarts           int
}

// StartTCP launches a Terminal Control Process pair on the node.
func (n *Node) StartTCP(cfg TCPConfig) (*tcp.TCP, error) {
	if cfg.BackupCPU == 0 && cfg.PrimaryCPU == 0 {
		cfg.BackupCPU = 1 % n.HW.NumCPUs()
	}
	return tcp.Start(n.Msg, tcp.Config{
		Name:        cfg.Name,
		PrimaryCPU:  cfg.PrimaryCPU,
		BackupCPU:   cfg.BackupCPU,
		Mon:         n.TMF,
		MaxRestarts: cfg.MaxRestarts,
	})
}
