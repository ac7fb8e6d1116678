// Command perfbench is the repository's benchmark: closed-loop
// workloads that climb the C(8,24) counter stack from the bare network
// to loopback sockets. One run measures one workload and prints every
// metric by name and unit; the last line of standard output is the
// result as one JSON object.
//
//	bash perfbench/run.sh --workload inproc-inc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs half its time untraced and half traced, and reports the
// per-layer metrics from the spans and counters of the traced half.
// Any correctness violation makes the exit code nonzero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string // where the traced run writes its spans; "" writes none
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the callers draw pids and op mixes from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (after a warm-up of a tenth of that, at most 1s)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, name := range rep.order {
		m := rep.res.Metrics[name]
		fmt.Fprintf(stdout, "# %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, v := range rep.violations {
		fmt.Fprintln(stderr, "perfbench: check failed:", v)
	}
	out, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.res.Correct {
		return 1
	}
	return 0
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's result plus the lines printed before it.
type report struct {
	res        result
	order      []string // metric names in print order
	notes      []string // host stamp and sample counts
	violations []error
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.res.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("%w (have %s)", err, workloadNames())
	}
	callers := min(w.callers, runtime.NumCPU())
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	rep := &report{res: result{Metrics: map[string]metric{}}}
	loopback := "no"
	if w.transport == "tcp" || w.transport == "udp" {
		loopback = w.transport + " over 127.0.0.1"
	}
	rep.note("perfbench workload=%s seed=%d seconds=%g trace=%t", w.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.note("host go=%s goos=%s goarch=%s gomaxprocs=%d numcpu=%d loopback=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), loopback)
	rep.note("topology C(%d,%d) depth 6, %d shards, %d closed-loop callers over %d logical processes",
		netWidth, netOutWidth, deployShards, callers, logicalProcs)
	if cfg.trace {
		err = runTraced(w, callers, cfg, rep)
	} else {
		err = runEndToEnd(w, callers, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.res.Correct = len(rep.violations) == 0
	return rep, nil
}

// attempt records a phase's measured ops, and its correctness
// violations, in the report.
func (r *report) attempt(p *phase) {
	ops, failed, _ := p.measured()
	r.res.Attempted += ops
	r.res.Failed += failed
	for _, c := range p.callers {
		if c.firstErr != nil {
			r.note("caller %d: %d failed ops, first: %v", c.id, c.errs, c.firstErr)
		}
	}
	r.violations = append(r.violations, p.check()...)
	if p.replays > 0 || p.retransmits > 0 {
		r.note("wire: %d dedup replays, %d retransmitted datagrams in one phase", p.replays, p.retransmits)
	}
}

// newPhase prepares the phase's callers; caller i draws from the PCG
// stream stream<<8|i of the seed.
func newPhase(w *workload, st *stack, callers int, seed, stream uint64, seconds float64, nwin int) *phase {
	p := &phase{w: w, st: st, nwin: nwin}
	p.windowLen = secondsDur(seconds / float64(nwin))
	for i := 0; i < callers; i++ {
		p.callers = append(p.callers, newCaller(i, callers, seed, stream<<8|uint64(i), st, nwin))
	}
	return p
}

// check runs the phase's correctness checks on the quiescent stack.
func (p *phase) check() []error {
	var errs []error
	var tokens, anti int64
	var sets []*valueSet
	for _, c := range p.callers {
		tokens += c.tokens
		anti += c.antitokens
		sets = append(sets, &c.vals)
	}
	if p.w.dense {
		if err := checkDense(sets, tokens); err != nil {
			errs = append(errs, err)
		}
	}
	read, err := p.st.read()
	if err != nil {
		errs = append(errs, fmt.Errorf("quiescent read: %w", err))
	} else if err := checkRead(read, tokens, anti); err != nil {
		errs = append(errs, err)
	}
	if p.st.ctr != nil {
		replays, retrans := p.st.shardSum(dedupReplays), p.st.ctr.Retransmits()
		p.replays, p.retransmits = replays, retrans
		if err := checkReplays(replays, retrans); err != nil {
			errs = append(errs, err)
		}
	}
	if p.scrapeErrs > 0 {
		errs = append(errs, fmt.Errorf("%d of %d control-plane scrapes failed", p.scrapeErrs, p.scrapes))
	}
	return errs
}

// measured sums the measured ops, failures and tokens over callers.
func (p *phase) measured() (ops, failed, tokens int64) {
	for _, c := range p.callers {
		for _, w := range c.wins {
			ops += w.ops
			failed += w.failed
			tokens += w.tokens
		}
	}
	return ops, failed, tokens
}

// rate is measured tokens per second of measured time; a traced phase
// may end early when its span arenas fill.
func (p *phase) rate() float64 {
	_, _, tokens := p.measured()
	var last = p.start
	for _, c := range p.callers {
		if c.lastDone.After(last) {
			last = c.lastDone
		}
	}
	if !last.After(p.start) {
		return 0
	}
	return float64(tokens) / last.Sub(p.start).Seconds()
}

// trial is one half-second measurement window on its own stack.
type trial struct {
	win   windowStat
	steal int64 // CPU ticks the hypervisor stole during measurement; -1 if unknown
}

// runEndToEnd splits the measured time into half-second trials, each
// on a freshly built stack, so no single heap layout or thread
// placement decides the run; setup_s is the median time of those
// builds. Each timing is the median over the calmest trials: those in
// which the hypervisor stole no more CPU from this guest than in the
// lower-quartile trial. Other guests on a shared host only add to the
// figures, and the steal counter says when they did.
func runEndToEnd(w *workload, callers int, cfg config, rep *report) error {
	trials := make([]trial, max(1, int(2*cfg.seconds+0.5)))
	setups := make([]float64, len(trials))
	trialSeconds := cfg.seconds / float64(len(trials))
	var ops, failed int64
	for i := range trials {
		// Collect the previous trial's garbage now, not during this
		// trial's measurement, and hand it back to the OS, so trials
		// stay independent and each starts from the same footprint.
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err := w.build(callers, false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
		p := newPhase(w, st, callers, cfg.seed, uint64(i), trialSeconds, 1)
		before, after := p.run(warmupFor(trialSeconds))
		rep.attempt(p)
		st.close()
		trials[i] = trial{win: p.windowStats()[0], steal: -1}
		if before.steal >= 0 && after.steal >= 0 {
			trials[i].steal = after.steal - before.steal
		}
		o, f, _ := p.measured()
		ops += o
		failed += f
	}
	kept := calmest(trials)

	var tps, p50, p99, samples []float64
	for _, t := range kept {
		tps = append(tps, float64(t.win.tokens)/trialSeconds)
		p50 = append(p50, t.win.p50/1e3)
		p99 = append(p99, t.win.p99/1e3)
		samples = append(samples, float64(t.win.ops))
	}
	rep.set("tokens_per_s", "1/s", median(tps))
	rep.set("op_p50_us", "us", median(p50))
	rep.set("op_p99_us", "us", median(p99))
	rep.set("ok_op_frac", "frac", 1-ratio(float64(failed), float64(ops)))
	rep.set("setup_s", "s", median(setups))
	rep.set("rss_peak_mib", "MiB", peakRSSMiB())
	steal := make([]float64, len(trials))
	for i, t := range trials {
		steal[i] = float64(t.steal)
	}
	rep.note("host: CPU ticks (1/100 s, /proc/stat) the hypervisor stole per trial: %s; timings use the %d of %d trials that lost no more than the lower-quartile trial", fmtList(steal), len(kept), len(trials))
	rep.note("samples: tokens_per_s, op_p50_us and op_p99_us are medians over %d trials of %.3gs; ops per trial (the sample count behind each trial's percentiles) median %.0f, min %.0f",
		len(tps), trialSeconds, median(samples), minOf(samples))
	rep.note("trials: tokens_per_s %s", fmtList(tps))
	rep.note("trials: op_p99_us %s", fmtList(p99))
	rep.note("samples: setup_s is the median of the %d trials' set-ups (topology, shard start, first flight); ok_op_frac counts every trial", len(setups))
	return nil
}

// calmest returns, in run order, the trials whose stolen CPU is at
// most the lower quartile's: at least a quarter of them, and all of
// them on a quiet host or when steal is unknown.
func calmest(trials []trial) []trial {
	steal := make([]int64, len(trials))
	for i, t := range trials {
		if t.steal < 0 {
			return trials
		}
		steal[i] = t.steal
	}
	slices.Sort(steal)
	limit := steal[(len(steal)+3)/4-1]
	var kept []trial
	for _, t := range trials {
		if t.steal <= limit {
			kept = append(kept, t)
		}
	}
	return kept
}

func runTraced(w *workload, callers int, cfg config, rep *report) error {
	half := cfg.seconds / 2

	// Untraced half: the baseline for trace.overhead_frac and the source
	// of the runtime metrics, which tracing would perturb.
	plain, err := w.build(callers, false)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	pa := newPhase(w, plain, callers, cfg.seed, 0, half, 1)
	a0, a1 := pa.run(warmupFor(half))
	rep.attempt(pa)
	plain.close()

	traced, err := w.build(callers, true)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer traced.close()
	pb := newPhase(w, traced, callers, cfg.seed, 1, half, 1)
	b0, b1 := pb.run(warmupFor(half))
	rep.attempt(pb)
	ts := analyze(traced.tr.arenas)
	if ts.unreconciled > 0 {
		rep.violations = append(rep.violations, fmt.Errorf("trace: %d of %d ops have spans that do not nest or self times that do not sum to the op span", ts.unreconciled, ts.ops))
	}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, w.name+".spans.tsv")
		if err := writeSpans(path, traced.tr.arenas); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.note("spans: %d written to %s", ts.spans, path)
	}
	layerMetrics(rep, w, pa, pb, a0, a1, b0, b1, ts)
	return nil
}

// warmupFor is the unmeasured lead-in before a phase of the given
// length: a tenth of it, between 0.1s and 1s.
func warmupFor(seconds float64) time.Duration {
	return secondsDur(min(1, max(0.1, seconds/10)))
}
