// Package steering implements the job steering service of the paper's
// Fig 4, the one C4 control loop every live simulation shares: it
// receives C4D findings, stops the job and fences the blamed node, draws
// a replacement from the backup pool the paper provisions at 64 spare
// GPUs per 1024, swaps it into the job and hands the job back for
// restart from the last checkpoint. Callers keep only their policy: which
// findings to steer on, the delays, and what a restart runs. It also
// contains the month-scale availability model that reproduces Table I and
// Table III.
package steering

import (
	"fmt"

	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/sim"
	"c4/internal/trace"
)

// Action is one recovery performed by the service.
type Action struct {
	Time        sim.Time
	Event       c4d.Event
	Node        int
	Replacement int
	RestartAt   sim.Time
}

// Config tunes the live steering pipeline.
type Config struct {
	Engine  *sim.Engine
	Cluster *cluster.Cluster
	// IsolationDelay is the time to drain and fence the node.
	IsolationDelay sim.Time
	// RestartDelay is scheduler + process re-launch + re-init time.
	RestartDelay sim.Time
	// Job is the steered job (required): the service stops it when it
	// fences a node and swaps the replacement in at the restart instant.
	Job Job
	// Restart is invoked at the restart instant, after the swap, with the
	// replacement node (the same node when no spare was available) and
	// the swap's error; it decides how the job resumes.
	Restart func(node, replacement int, err error)

	// Trace, when enabled, records each recovery as a "steer" span from
	// the triggering finding to the restart instant, parented under the
	// detection that caused it (the tracer's "detect" mark, falling back
	// to the open "fault" window). Optional.
	Trace *trace.Tracer
}

// Job is the part of a running training job the service steers;
// *job.Job satisfies it.
type Job interface {
	Stop()
	ReplaceNode(old, replacement int) error
}

// Service is the live recovery pipeline driven by C4D events.
type Service struct {
	cfg     Config
	actions []Action
	busy    bool
}

// NewService creates the pipeline; subscribe its Handle method to a C4D
// master.
func NewService(cfg Config) *Service {
	if cfg.IsolationDelay <= 0 {
		cfg.IsolationDelay = 30 * sim.Second
	}
	if cfg.RestartDelay <= 0 {
		cfg.RestartDelay = 3 * sim.Minute
	}
	return &Service{cfg: cfg}
}

// Actions returns the recovery log.
func (s *Service) Actions() []Action { return append([]Action(nil), s.actions...) }

// Handle processes one C4D finding: stop the job and fence the node,
// then swap in the replacement and restart. Findings arriving while a
// recovery is in flight are coalesced (the restart already fixes the
// job); Handle reports whether this finding started a recovery.
func (s *Service) Handle(ev c4d.Event) bool {
	if s.busy {
		return false
	}
	s.busy = true
	now := s.cfg.Engine.Now()
	var sp *trace.Span
	if tr := s.cfg.Trace; tr.Enabled() {
		parent := tr.Mark("detect")
		if parent == nil {
			parent = tr.Mark("fault")
		}
		sp = tr.Start(parent, "steer", ev.Syndrome.String())
		sp.Annotate("node", fmt.Sprintf("%d", ev.Node))
	}
	s.cfg.Job.Stop()
	act := Action{Time: now, Event: ev, Node: ev.Node}
	s.cfg.Engine.After(s.cfg.IsolationDelay, func() {
		repl := s.cfg.Cluster.Isolate(ev.Node)
		if repl < 0 {
			repl = ev.Node // pool empty: restart in place after repair
		}
		act.Replacement = repl
		s.cfg.Engine.After(s.cfg.RestartDelay, func() {
			act.RestartAt = s.cfg.Engine.Now()
			sp.Annotate("replacement", fmt.Sprintf("%d", repl))
			sp.FinishAt(act.RestartAt)
			s.actions = append(s.actions, act)
			s.busy = false
			err := s.cfg.Job.ReplaceNode(ev.Node, repl)
			if s.cfg.Restart != nil {
				s.cfg.Restart(ev.Node, repl, err)
			}
		})
	})
	return true
}

func (a Action) String() string {
	return fmt.Sprintf("isolated n%d -> n%d (%v), restarted at %v",
		a.Node, a.Replacement, a.Event.Syndrome, a.RestartAt)
}
