package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctlplane"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// A short run of each workload emits every metric BENCHMARK.json
// names, with its unit, and passes every correctness check.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	// The layer each workload must reach, as a per-layer metric that
	// reads nonzero only when spans of that layer were recorded.
	reaches := map[string]string{
		"local-inc":  "network.inc_ns",
		"inproc-inc": "inproc.exchange_p50_us",
		"udp-batch":  "udpnet.batch_p50_us",
		"tcp-mixed":  "tcpnet.exchange_p50_us",
	}
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := run(config{workload: wl.Name, seed: 7, seconds: 0.6, trace: traced, traceDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.res.Correct || rep.res.Attempted < 1 || rep.res.Failed != 0 {
					t.Fatalf("trace=%t: correct=%t attempted=%d failed=%d violations=%v",
						traced, rep.res.Correct, rep.res.Attempted, rep.res.Failed, rep.violations)
				}
				if !traced {
					checkMetrics(t, rep.res.Metrics, bf.EndToEnd)
					continue
				}
				checkMetrics(t, rep.res.Metrics, bf.PerLayer)
				if v := rep.res.Metrics[reaches[wl.Name]].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", reaches[wl.Name], v)
				}
				if v := rep.res.Metrics["trace.ops"].Value; v <= 0 {
					t.Errorf("trace.ops = %v, want > 0", v)
				}
			}
		})
	}
}

func TestCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cli([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	code := cli([]string{"--workload", "local-inc", "--seed", "3", "--seconds", "0.3", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	for _, stamp := range []string{"go=go", "goos=", "gomaxprocs=", "numcpu=", "loopback=", "seed=3"} {
		if !strings.Contains(out.String(), stamp) {
			t.Errorf("output lacks host stamp %q", stamp)
		}
	}
}

func values(vs ...int64) *valueSet {
	s := &valueSet{}
	for _, v := range vs {
		s.add(v)
	}
	return s
}

func TestCheckDense(t *testing.T) {
	cases := []struct {
		name string
		sets []*valueSet
		n    int64
		ok   bool
	}{
		{"dense across callers", []*valueSet{values(0, 2, 4), values(3, 1)}, 5, true},
		{"empty", []*valueSet{values()}, 0, true},
		{"duplicate", []*valueSet{values(0, 1, 2), values(2)}, 4, false},
		{"duplicate within a caller", []*valueSet{values(0, 1, 1)}, 3, false},
		{"missing", []*valueSet{values(0, 2)}, 3, false},
		{"duplicate hides a gap", []*valueSet{values(0, 1), values(1, 3)}, 4, false},
		{"out of range", []*valueSet{values(0, 1, 3)}, 3, false},
		{"negative", []*valueSet{values(-1, 1, 2)}, 3, false},
	}
	for _, c := range cases {
		err := checkDense(c.sets, c.n)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestCheckRead(t *testing.T) {
	if err := checkRead(5, 6, 1); err != nil {
		t.Errorf("reconciling read rejected: %v", err)
	}
	if err := checkRead(6, 6, 1); err == nil {
		t.Error("read that does not reconcile accepted")
	}
}

func TestCheckReplays(t *testing.T) {
	if err := checkReplays(0, 0); err != nil {
		t.Errorf("no replays rejected: %v", err)
	}
	if err := checkReplays(1, 0); err == nil {
		t.Error("replay without a retransmit accepted")
	}
	if err := checkReplays(6, 1); err != nil {
		t.Errorf("replays of one retransmitted datagram rejected: %v", err)
	}
}

// Self times reconcile with the op span when children nest; a child
// outside its parent, or overlapping a sibling, is reported.
func TestAnalyzeReconciles(t *testing.T) {
	good := &arena{spans: []span{
		{start: 0, end: 100, parent: -1, op: 1, kind: kindOp},
		{start: 10, end: 90, parent: 0, op: 1, kind: kindSession},
		{start: 20, end: 40, parent: 1, op: 1, kind: kindExchange},
		{start: 50, end: 60, parent: 1, op: 1, kind: kindExchange},
		{start: 200, end: 210, parent: -1, op: 2, kind: kindOp},
	}}
	st := analyze([]*arena{good})
	if st.ops != 2 || st.unreconciled != 0 {
		t.Fatalf("ops %d unreconciled %d, want 2 and 0", st.ops, st.unreconciled)
	}
	if st.opSelf != 20+10 || st.sessSelf != 50 {
		t.Errorf("op self %d session self %d, want 30 and 50", st.opSelf, st.sessSelf)
	}
	for name, bad := range map[string][]span{
		"child outside parent": {
			{start: 0, end: 100, parent: -1, op: 1, kind: kindOp},
			{start: 10, end: 120, parent: 0, op: 1, kind: kindSession},
		},
		"overlapping siblings": {
			{start: 0, end: 100, parent: -1, op: 1, kind: kindOp},
			{start: 10, end: 50, parent: 0, op: 1, kind: kindSession},
			{start: 40, end: 60, parent: 0, op: 1, kind: kindSession},
		},
		"foreign op": {
			{start: 0, end: 100, parent: -1, op: 1, kind: kindOp},
			{start: 10, end: 50, parent: 0, op: 2, kind: kindSession},
		},
	} {
		if st := analyze([]*arena{{spans: bad}}); st.unreconciled != 1 {
			t.Errorf("%s: unreconciled %d, want 1", name, st.unreconciled)
		}
	}
}

// The latency sampler keeps every stride-th op and doubles the stride
// when full, so kept samples stay evenly spread over the window.
func TestWindowSampling(t *testing.T) {
	w := window{samples: make([]uint32, 0, 8), stride: 1}
	for i := int64(1); i <= 100; i++ {
		w.sample(i)
	}
	if w.stride != 16 {
		t.Fatalf("stride %d, want 16", w.stride)
	}
	for i, v := range w.samples {
		if want := uint32(16 * (i + 1)); v != want {
			t.Errorf("sample %d = %d, want %d", i, v, want)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	h := ctlplane.HistSnapshot{Buckets: []ctlplane.HistBucket{
		{LE: 1e-6, Count: 10},
		{LE: 2e-6, Count: 30},
		{LE: math.Inf(1), Count: 40},
	}, Count: 40}
	for _, c := range []struct{ q, want float64 }{
		{0.125, 0.5}, // rank 5 of the first 10, in [0, 1µs]
		{0.5, 1.5},   // rank 20: halfway through the second bucket
		{0.99, 2},    // overflow bucket: the last finite bound
	} {
		if got := histQuantileUS(h, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: %v µs, want %v", c.q, got, c.want)
		}
	}
	if got := histQuantileUS(ctlplane.HistSnapshot{}, 0.99); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
}

func TestCalmest(t *testing.T) {
	trials := []trial{{steal: 9}, {steal: 0}, {steal: 40}, {steal: 3}, {steal: 3}, {steal: 2}, {steal: 5}, {steal: 2}}
	var got []int64
	for _, tr := range calmest(trials) {
		got = append(got, tr.steal)
	}
	if want := []int64{0, 2, 2}; !slices.Equal(got, want) {
		t.Errorf("kept steal %v, want %v (at most the lower quartile, run order)", got, want)
	}
	if n := len(calmest([]trial{{steal: 0}, {steal: 0}, {steal: 0}})); n != 3 {
		t.Errorf("quiet host: kept %d trials, want all 3", n)
	}
	if n := len(calmest([]trial{{steal: 1}, {steal: -1}})); n != 2 {
		t.Errorf("unknown steal: kept %d trials, want all 2", n)
	}
}
