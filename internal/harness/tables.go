package harness

import (
	"fmt"
	"math"
	"strings"

	"c4/internal/cluster"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/steering"
)

// TableIResult reproduces Table I: the crash-cause distribution of a
// month of a representative 4096-GPU job — the evidence that ~82.5% of
// failures are node-local and therefore isolatable.
type TableIResult struct {
	steering.CrashTable
}

// runTableI samples a year of the fault process (12 months shrinks
// Monte-Carlo noise; proportions are month-invariant).
func runTableI(ctx *scenario.Ctx) TableIResult {
	return TableIResult{steering.SimulateCrashCauses(sim.NewRand(ctx.Seed), 512, 12*30*sim.Day)}
}

// String renders the paper's table.
func (r TableIResult) String() string {
	var sb strings.Builder
	sb.WriteString("Table I — crash causes (4096-GPU job)\n")
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.UserView,
			row.RootCause.String(),
			fmt.Sprintf("%.1f%%", row.Proportion*100),
			fmt.Sprintf("%.1f%%", row.LocalFrac*100),
		}
	}
	sb.WriteString(metrics.Table([]string{"users' view", "root cause", "proportion", "local"}, rows))
	fmt.Fprintf(&sb, "overall local: %.1f%% of %d crashes\n", r.LocalFraction()*100, r.Total)
	return sb.String()
}

// CheckShape validates the distribution against the paper's columns. The
// tolerance scales with the sample: a Monte-Carlo proportion over N
// crashes is binomial, so each row gets a 4σ band (plus a small floor for
// tiny samples).
func (r TableIResult) CheckShape() error {
	if r.Total == 0 {
		return fmt.Errorf("tableI: no crashes sampled")
	}
	want := map[cluster.FaultKind]float64{
		cluster.FaultCUDAError:    0.125,
		cluster.FaultECCNVLink:    0.275,
		cluster.FaultNCCLTimeout:  0.20,
		cluster.FaultACKTimeout:   0.275,
		cluster.FaultNetworkOther: 0.125,
	}
	n := float64(r.Total)
	for _, row := range r.Rows {
		w := want[row.RootCause]
		tol := 4*math.Sqrt(w*(1-w)/n) + 0.005
		if math.Abs(row.Proportion-w) > tol {
			return fmt.Errorf("tableI: %v proportion %.3f, want %.3f ± %.3f (N=%d)",
				row.RootCause, row.Proportion, w, tol, r.Total)
		}
	}
	lfTol := 4*math.Sqrt(0.825*0.175/n) + 0.005
	if lf := r.LocalFraction(); math.Abs(lf-0.825) > lfTol {
		return fmt.Errorf("tableI: local fraction %.3f, want 0.825 ± %.3f", lf, lfTol)
	}
	return nil
}

// TableIIIResult reproduces Table III: error-induced downtime of the
// 2400-GPU GPT-175B job before (June 2023, manual operations) and after
// (December 2023, C4D) deployment.
type TableIIIResult struct {
	Jun steering.Breakdown
	Dec steering.Breakdown
}

// runTableIII Monte-Carlos both regimes, averaging across months to table
// precision.
func runTableIII(ctx *scenario.Ctx) TableIIIResult {
	seed := ctx.Seed
	avg := func(reg steering.Regime) steering.Breakdown {
		const months = 12
		agg := steering.Breakdown{Regime: reg.Name, Diagnosis: map[cluster.FaultKind]float64{}}
		for mth := 0; mth < months; mth++ {
			b := steering.SimulateAvailability(steering.AvailabilityConfig{
				Rand:   sim.NewRand(seed + int64(mth)),
				Nodes:  300,
				Regime: reg,
			})
			agg.Faults += b.Faults
			agg.PostCkpt += b.PostCkpt / months
			agg.Detection += b.Detection / months
			agg.Reinit += b.Reinit / months
			for k, v := range b.Diagnosis {
				agg.Diagnosis[k] += v / months
			}
		}
		agg.Faults /= months
		return agg
	}
	return TableIIIResult{Jun: avg(steering.ManualRegime()), Dec: avg(steering.C4DRegime())}
}

// String renders both halves of the paper's table.
func (r TableIIIResult) String() string {
	var sb strings.Builder
	sb.WriteString("Table III — error-induced downtime (fraction of wall time)\n")
	render := func(b steering.Breakdown) {
		fmt.Fprintf(&sb, "%s (%d crashes/month):\n", b.Regime, b.Faults)
		rows := [][]string{
			{"Post-Checkpoint", fmt.Sprintf("%.2f%%", b.PostCkpt*100)},
			{"Detection", fmt.Sprintf("%.2f%%", b.Detection*100)},
			{"Diagnosis & Isolation", fmt.Sprintf("%.2f%%", b.DiagnosisTotal()*100)},
		}
		for _, k := range b.Causes() {
			rows = append(rows, []string{"  " + k.String(), fmt.Sprintf("%.2f%%", b.Diagnosis[k]*100)})
		}
		rows = append(rows,
			[]string{"Re-Initialization", fmt.Sprintf("%.2f%%", b.Reinit*100)},
			[]string{"Total", fmt.Sprintf("%.2f%%", b.Total()*100)},
		)
		sb.WriteString(metrics.Table([]string{"phase", "downtime"}, rows))
	}
	render(r.Jun)
	render(r.Dec)
	fmt.Fprintf(&sb, "reduction: %.1fx\n", r.Jun.Total()/r.Dec.Total())
	return sb.String()
}

// CheckShape validates the paper's headline numbers: ≈31% before, ≈1.2%
// after, a ≈30x reduction with diagnosis dominating both columns.
func (r TableIIIResult) CheckShape() error {
	if t := r.Jun.Total(); t < 0.24 || t > 0.40 {
		return fmt.Errorf("tableIII: June total %.1f%%, want ≈31%%", t*100)
	}
	if t := r.Dec.Total(); t < 0.005 || t > 0.025 {
		return fmt.Errorf("tableIII: December total %.2f%%, want ≈1.2%%", t*100)
	}
	if f := r.Jun.Total() / r.Dec.Total(); f < 15 || f > 45 {
		return fmt.Errorf("tableIII: reduction %.1fx, want ≈30x", f)
	}
	for _, b := range []steering.Breakdown{r.Jun, r.Dec} {
		if b.DiagnosisTotal() < b.PostCkpt || b.DiagnosisTotal() < b.Detection {
			return fmt.Errorf("tableIII: %s diagnosis should dominate", b.Regime)
		}
	}
	return nil
}
