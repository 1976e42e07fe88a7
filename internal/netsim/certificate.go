package netsim

import (
	"fmt"
	"sync/atomic"
)

// CheckMaxMin checks the allocation the last recompute left on n's active
// flows against the max-min fairness certificate, which any correct
// allocation meets and which needs no second kernel to check, and
// describes the first violation it finds:
//   - no link carries more than its capacity (1e-9 relative slack for
//     rounding);
//   - every flow on a dead path is at rate 0;
//   - every other flow crosses a saturated link — one loaded to within the
//     kernel's 1e-6 CNP saturation slack of its capacity — on which no
//     flow's rate exceeds its own by more than rateEpsilon (relative).
//
// The last clause is the bottleneck property that makes an allocation
// max-min fair: no flow can speed up without slowing a flow that is no
// faster. The check reads every flow, so it also covers the components a
// recompute left untouched.
func (n *Network) CheckMaxMin() error {
	nl := len(n.Topo.Links)
	if n.chk == nil {
		n.chk = make([]float64, 2*nl)
	}
	clear(n.chk)
	load, fastest := n.chk[:nl], n.chk[nl:]
	for _, f := range n.flows {
		if f == nil {
			continue
		}
		if !f.Path.Up() {
			if f.rate != 0 {
				return fmt.Errorf("flow %s on a dead path at rate %v", f.Label, f.rate)
			}
			continue
		}
		for _, l := range f.Path.Links {
			load[l.ID] += f.rate
			fastest[l.ID] = max(fastest[l.ID], f.rate)
		}
	}
	for id, sum := range load {
		if capBits := n.linkCap(id); sum > capBits*(1+1e-9) {
			return fmt.Errorf("link %s carries %v bit/s over its %v capacity", n.Topo.Links[id].Name, sum, capBits)
		}
	}
	for _, f := range n.flows {
		if f == nil || !f.Path.Up() {
			continue
		}
		bottlenecked := false
		for _, l := range f.Path.Links {
			if load[l.ID] >= n.linkCap(l.ID)*(1-1e-6) && fastest[l.ID] <= f.rate*(1+rateEpsilon) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %s at %v bit/s crosses no saturated link it is fastest on", f.Label, f.rate)
		}
	}
	return nil
}

// forcedCheck, when set, is the violation handler New installs on every
// Network, which then runs CheckMaxMin after every recompute.
var forcedCheck atomic.Pointer[func(error)]

// ForceMaxMinCheck makes every Network created until the returned restore
// function is called check the max-min certificate after every recompute,
// passing each violation to report. It is test plumbing, not API: it
// reaches scenarios that build their own Network internally.
func ForceMaxMinCheck(report func(error)) (restore func()) {
	prev := forcedCheck.Swap(&report)
	return func() { forcedCheck.Store(prev) }
}
