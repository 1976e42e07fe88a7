package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"c4/internal/sim"
	"c4/internal/trace"
)

// recorder collects what one measured window produced: attempted and
// failed units, the measured units, counts and, in a traced window,
// host-time spans. Serve's concurrent sessions record into it at once.
type recorder struct {
	mu        sync.Mutex
	origin    time.Time
	attempted int
	failed    int
	failures  []string
	// units holds the measured units per key. A workload whose units are
	// alike records under one key; the pass workloads record one key per
	// scenario, so a pass sums the per-scenario medians.
	units  map[string][]unitSample
	counts map[string]float64
	notes  map[string][]float64 // samples reported only in the detail
	// calMs are the calibration kernel's times through the window or the
	// set-ups; only the goroutine that drives them calibrates.
	calBuf  []uint32
	calMs   []float64
	lastCal time.Time
	tracing bool
	spans   []hostSpan
}

// unitSample is one measured unit: its host milliseconds, the work items
// it completed, and the heap bytes and objects the process allocated
// meanwhile.
type unitSample struct {
	ms, items, bytes, objects float64
}

// per scales a sample of n units down to one.
func (s unitSample) per(n float64) unitSample {
	return unitSample{ms: s.ms / n, items: s.items / n, bytes: s.bytes / n, objects: s.objects / n}
}

// meter measures one unit from its start.
type meter struct {
	start          time.Time
	bytes, objects float64
}

func startMeter() meter {
	b, o := allocs()
	return meter{start: time.Now(), bytes: b, objects: o}
}

func (m meter) stop(items float64) unitSample {
	b, o := allocs()
	return unitSample{ms: msSince(m.start), items: items, bytes: b - m.bytes, objects: o - m.objects}
}

// hostSpan is one interval of host time around a call into a layer. Kind
// is the layer; the spans of one pass, shard, round or replay share the
// root span that is their ancestor.
type hostSpan struct {
	id, parent int
	kind, name string
	start, end time.Duration
}

func newRecorder(tracing bool) *recorder {
	return &recorder{
		origin:  time.Now(),
		units:   map[string][]unitSample{},
		counts:  map[string]float64{},
		notes:   map[string][]float64{},
		calBuf:  make([]uint32, calibrationWords),
		tracing: tracing,
	}
}

// maxFailureNotes bounds how many failure messages a run prints.
const maxFailureNotes = 10

func (r *recorder) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts n failed units and keeps the message for the report.
func (r *recorder) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// unit records one completed unit under key.
func (r *recorder) unit(key string, s unitSample) {
	r.mu.Lock()
	r.units[key] = append(r.units[key], s)
	r.mu.Unlock()
}

func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

func (r *recorder) note(name string, v float64) {
	r.mu.Lock()
	r.notes[name] = append(r.notes[name], v)
	r.mu.Unlock()
}

// begin opens a span and returns its ID, or 0 when the window is untraced.
func (r *recorder) begin(parent int, kind, name string) int {
	if !r.tracing {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, hostSpan{id: id, parent: parent, kind: kind, name: name, start: time.Since(r.origin), end: -1})
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].end = time.Since(r.origin)
	r.mu.Unlock()
}

// perUnit sums over keys the median of one field of the key's units: the
// cost of one unit, robust to the units a deadline cut short and to the
// mix of keys a window happened to cover.
func (r *recorder) perUnit(field func(unitSample) float64) float64 {
	var total float64
	for _, k := range keys(r.units) {
		total += medianOf(r.units[k], field)
	}
	return total
}

// keyMs is the median raw host time of the units under key.
func (r *recorder) keyMs(key string) float64 {
	return medianOf(r.units[key], func(u unitSample) float64 { return u.ms })
}

func medianOf(us []unitSample, field func(unitSample) float64) float64 {
	xs := make([]float64, len(us))
	for i, u := range us {
		xs[i] = field(u)
	}
	return median(xs)
}

// unitMs is the raw host time of one unit.
func (r *recorder) unitMs() float64 { return r.perUnit(func(u unitSample) float64 { return u.ms }) }

// calibrateEvery is how often, at most, a window times the calibration
// kernel; at about 2 ms a run, that costs about 1% of the window.
const calibrateEvery = 200 * time.Millisecond

// calibrationRefMs is the calibration kernel's median time on the host the
// bounds were measured on (2 vCPUs of an Intel Xeon, Go 1.24).
const calibrationRefMs = 2.5

const calibrationWords = 1 << 17 // 512 KiB, beyond a core's L2

// tick is called between units, while none of the workload's work is in
// flight. At most every calibrateEvery it times the calibration kernel,
// tracking the host's speed through the window.
func (r *recorder) tick() {
	if time.Since(r.lastCal) >= calibrateEvery {
		r.calibrateNow()
	}
}

// calibrateNow times the calibration kernel once.
func (r *recorder) calibrateNow() {
	t0 := time.Now()
	calibrate(r.calBuf)
	r.calMs = append(r.calMs, msSince(t0))
	r.lastCal = time.Now()
}

// speed is the host's speed while the recorder calibrated, relative to the
// reference host: the kernel's reference time over its median time here.
func (r *recorder) speed() float64 {
	m := median(r.calMs)
	if m == 0 {
		return 1
	}
	return calibrationRefMs / m
}

// normUnitMs is the host time of one unit at the reference host's speed:
// the host's own speed drifts by tens of percent over minutes on a shared
// machine, and the calibration kernel, timed between the units, slows
// down with it.
func (r *recorder) normUnitMs() float64 { return r.unitMs() * r.speed() }

// calibrate is the fixed kernel tick times: integer arithmetic, a sort
// and dependent random reads and writes over a buffer larger than L2,
// allocating nothing.
func calibrate(buf []uint32) {
	x := uint32(2463534242)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		buf[i] = x
	}
	slices.Sort(buf[:len(buf)/8])
	var h uint32
	mask := uint32(len(buf) - 1)
	for i := range buf {
		j := (buf[i] ^ h) & mask
		h += buf[j]
		buf[j] = h
	}
}

// spanMs returns the host milliseconds of each span of the given kind and
// name.
func (r *recorder) spanMs(kind, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.kind == kind && s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// traceSpans converts the host-time spans to trace spans, so the existing
// Chrome exporter, c4trace and trace.Profile read them.
func (r *recorder) traceSpans() []*trace.Span {
	out := make([]*trace.Span, len(r.spans))
	for i, s := range r.spans {
		out[i] = &trace.Span{
			ID: s.id, Parent: s.parent, Kind: s.kind, Name: s.name,
			Start: sim.FromDuration(s.start), End: sim.FromDuration(s.end),
		}
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part / whole
}

func per(x, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return x / n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" one),
// so spreads here match the ones the acceptance check computes. Fewer
// than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile of xs by the nearest-rank method.
// A window of serve runs a few hundred sessions, so the 95th has well over
// ten samples beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

// gcSnap is the cumulative Go runtime GC counters a traced window's GC
// metrics are differences of.
type gcSnap struct {
	cycles, gcCPU, totalCPU float64
}

func readGC() gcSnap {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSnap{cycles: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// allocs reads the process's cumulative heap allocation.
func allocs() (bytes, objects float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo describes the machine and build a run was measured on, so one
// output file stands as a ledger point without side notes.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return parseCPUModel(f)
}

func parseCPUModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit the binary was built from, as the go command
// stamped it; "unknown" when built outside a git checkout.
func gitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
