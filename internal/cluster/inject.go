package cluster

import (
	"c4/internal/sim"
)

// CauseProb is one row of the fault-cause mixture.
type CauseProb struct {
	Kind FaultKind
	// Weight is the relative arrival probability.
	Weight float64
	// LocalProb is the probability the instance is confined to one node.
	LocalProb float64
}

// TableIMix returns the crash-cause distribution measured over one month of
// a representative 4096-GPU job (Table I): CUDA 12.5% (100% local),
// ECC/NVLink 27.5% (100%), NCCL timeout 20% (75%), ACK timeout 27.5%
// (81.8%), other network errors 12.5% (40%). Expected locality: 82.5%.
func TableIMix() []CauseProb {
	return []CauseProb{
		{FaultCUDAError, 0.125, 1.0},
		{FaultECCNVLink, 0.275, 1.0},
		{FaultNCCLTimeout, 0.20, 0.75},
		{FaultACKTimeout, 0.275, 0.818},
		{FaultNetworkOther, 0.125, 0.40},
	}
}

// InjectorConfig parameterizes the fault process.
type InjectorConfig struct {
	Rand  *sim.Rand
	Nodes int
	// GPUsPerNode scales the fleet-size-dependent arrival rate.
	GPUsPerNode int
	// CrashesPerMonthPer4096 is the fleet-normalized crash rate; the
	// paper's representative job saw 40 crashes/month on 4096 GPUs.
	CrashesPerMonthPer4096 float64
	// Mix is the cause distribution (default TableIMix).
	Mix []CauseProb
}

// Injector draws fault arrivals as a Poisson process whose rate scales
// with fleet size, assigning each fault a cause, locality and victim node.
type Injector struct {
	cfg  InjectorConfig
	mean sim.Time // mean inter-arrival
}

// NewInjector validates the config and returns an injector.
func NewInjector(cfg InjectorConfig) *Injector {
	if cfg.Rand == nil {
		cfg.Rand = sim.NewRand(11)
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = 8
	}
	if cfg.CrashesPerMonthPer4096 <= 0 {
		cfg.CrashesPerMonthPer4096 = 40
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = TableIMix()
	}
	gpus := float64(cfg.Nodes * cfg.GPUsPerNode)
	perMonth := cfg.CrashesPerMonthPer4096 * gpus / 4096
	month := 30 * sim.Day
	inj := &Injector{cfg: cfg}
	if perMonth > 0 {
		inj.mean = sim.Time(float64(month) / perMonth)
	} else {
		inj.mean = sim.MaxTime
	}
	return inj
}

// MeanInterarrival reports the expected time between faults.
func (in *Injector) MeanInterarrival() sim.Time { return in.mean }

// Next draws the next fault, `after` the given instant.
func (in *Injector) Next(after sim.Time) Fault {
	r := in.cfg.Rand
	at := after + r.ExpTime(in.mean)
	weights := make([]float64, len(in.cfg.Mix))
	for i, m := range in.cfg.Mix {
		weights[i] = m.Weight
	}
	row := in.cfg.Mix[r.Pick(weights)]
	return Fault{
		Kind:  row.Kind,
		Node:  r.Intn(in.cfg.Nodes),
		Time:  at,
		Local: r.Float64() < row.LocalProb,
	}
}

// SampleWindow draws all faults arriving within the window [0, span).
func (in *Injector) SampleWindow(span sim.Time) []Fault {
	var out []Fault
	var t sim.Time
	for {
		f := in.Next(t)
		if f.Time >= span {
			return out
		}
		t = f.Time
		out = append(out, f)
	}
}
