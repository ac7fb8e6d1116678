package main

import (
	"bufio"
	"cmp"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wire"
)

const dedupReplays = wire.MetricDedupReplays

// windowStat is one measurement window across all callers.
type windowStat struct {
	tokens, ops int64
	p50, p99    float64 // op latency, ns
}

// windowStats merges the callers' windows. Each caller kept every
// stride-th op's latency, so its samples are weighted by its stride.
func (p *phase) windowStats() []windowStat {
	out := make([]windowStat, p.nwin)
	var n int
	for _, c := range p.callers {
		for i := range c.wins {
			n = max(n, len(c.wins[i].samples))
		}
	}
	ws := make([]weighted, 0, n*len(p.callers))
	for i := range out {
		ws = ws[:0]
		for _, c := range p.callers {
			w := &c.wins[i]
			out[i].tokens += w.tokens
			out[i].ops += w.ops
			for _, v := range w.samples {
				ws = append(ws, weighted{v: float64(v), w: w.stride})
			}
		}
		slices.SortFunc(ws, func(a, b weighted) int { return cmp.Compare(a.v, b.v) })
		out[i].p50, out[i].p99 = weightedQuantile(ws, 0.50), weightedQuantile(ws, 0.99)
	}
	return out
}

type weighted struct {
	v float64
	w uint64
}

// weightedQuantile returns the nearest-rank q-quantile of weighted
// samples sorted by value: the smallest value whose cumulative weight
// reaches q of the total. An empty sample gives 0.
func weightedQuantile(ws []weighted, q float64) float64 {
	var total uint64
	for _, s := range ws {
		total += s.w
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for _, s := range ws {
		cum += s.w
		if cum >= rank {
			return s.v
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of ns durations, in µs; 0
// when there are none.
func quantile(ds []int64, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return float64(s[max(rank, 1)-1]) / 1e3
}

func mean(ds []int64) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum int64
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// readSteal returns the CPU time, in clock ticks summed over CPUs, that
// the hypervisor has run other guests while this one was runnable (the
// steal column of /proc/stat); -1 where it is unavailable.
func readSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMiB reads the process's peak resident set (VmHWM); 0 where
// /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sampleSum sums the counter or gauge series of one metric name.
func sampleSum(samples []ctlplane.Sample, name string) int64 {
	var n int64
	for _, s := range samples {
		if s.Name == name {
			n += s.Value
		}
	}
	return n
}

// histDelta is the histogram of observations made between two
// snapshots of one series.
func histDelta(before, after []ctlplane.Sample, name string) ctlplane.HistSnapshot {
	find := func(samples []ctlplane.Sample) *ctlplane.HistSnapshot {
		for _, s := range samples {
			if s.Name == name && s.Hist != nil {
				return s.Hist
			}
		}
		return nil
	}
	b, a := find(before), find(after)
	if a == nil {
		return ctlplane.HistSnapshot{}
	}
	d := ctlplane.HistSnapshot{Buckets: slices.Clone(a.Buckets), Count: a.Count}
	if b != nil {
		for i := range d.Buckets {
			d.Buckets[i].Count -= b.Buckets[i].Count
		}
		d.Count -= b.Count
	}
	return d
}

// histQuantileUS reads the q-quantile of a histogram in µs the way
// Prometheus's histogram_quantile does: locate the bucket holding the
// rank and interpolate linearly inside it. It is 0 with no
// observations, and the last finite bound when the rank lands in the
// overflow bucket.
func histQuantileUS(h ctlplane.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var lower float64
	var below int64
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				return lower * 1e6
			}
			return (lower + (b.LE-lower)*(rank-float64(below))/float64(b.Count-below)) * 1e6
		}
		lower, below = b.LE, b.Count
	}
	return lower * 1e6
}

// layerMetrics reports the per-layer metrics of a traced run: span
// self times and counters from the traced phase pb, runtime counts and
// the overhead baseline from the untraced phase pa. Metrics of layers
// the workload does not reach read 0.
func layerMetrics(rep *report, w *workload, pa, pb *phase, a0, a1, b0, b1 snapshot, ts traceStats) {
	_, _, tokA := pa.measured()
	_, _, tokB := pb.measured()
	tokensA, tokensB := float64(tokA), float64(tokB)
	ops := float64(ts.ops)
	transport := w.transport

	var incNs, stalls float64
	if transport == "" {
		incNs = mean(ts.opDurs)
		var st, tok int64
		for _, c := range pb.callers {
			st += c.stalls
			tok += c.tokens
		}
		stalls = ratio(float64(st), float64(tok))
	}
	rep.set("network.inc_ns", "ns", incNs)
	rep.set("network.stalls_per_token", "stalls/token", stalls)

	delta := func(name string) float64 {
		return float64(sampleSum(b1.samples, name) - sampleSum(b0.samples, name))
	}
	shardDelta := func(name string) float64 {
		return float64(sampleSum(b1.shard, name) - sampleSum(b0.shard, name))
	}
	var xSelf, walkSelf float64
	if transport != "" {
		xSelf = ratio(float64(ts.opSelf), ops) / 1e3
		walkSelf = ratio(float64(ts.sessSelf), ops) / 1e3
	}
	flights := delta(wire.MetricClientFlights)
	rpcs := delta(wire.MetricClientRPCs)
	rep.set("xport.flights_per_token", "flights/token", ratio(flights, tokensB))
	rep.set("xport.self_us_per_op", "us", xSelf)
	rep.set("xport.walk_self_us_per_op", "us", walkSelf)
	rep.set("xport.flight_p99_us", "us", histQuantileUS(histDelta(b0.samples, b1.samples, wire.MetricClientFlightSeconds), 0.99))
	rep.set("xport.checkout_p99_us", "us", histQuantileUS(histDelta(b0.samples, b1.samples, wire.MetricClientCheckoutSeconds), 0.99))
	rep.set("xport.coalesce_wait_p99_us", "us", histQuantileUS(histDelta(b0.samples, b1.samples, wire.MetricClientCoalesceSeconds), 0.99))
	rep.set("xport.coalesced_token_frac", "frac", ratio(delta(wire.MetricClientWindowTokens), tokensB))
	rep.set("xport.retries_per_flight", "retries/flight", ratio(delta(wire.MetricClientRetries), flights))

	rep.set("wire.frames_per_token", "frames/token", ratio(rpcs, tokensB))
	rep.set("wire.dedup_replays", "count", shardDelta(dedupReplays))

	exch := func(name string) (float64, float64) {
		if transport != name {
			return 0, 0
		}
		return quantile(ts.exchDurs, 0.50), quantile(ts.exchDurs, 0.99)
	}
	p50, p99 := exch("inproc")
	rep.set("inproc.exchange_p50_us", "us", p50)
	rep.set("inproc.exchange_p99_us", "us", p99)
	p50, p99 = exch("tcp")
	rep.set("tcpnet.exchange_p50_us", "us", p50)
	rep.set("tcpnet.exchange_p99_us", "us", p99)

	var batch50, batch99 float64
	if transport == "udp" {
		batch50, batch99 = quantile(ts.sessDurs, 0.50), quantile(ts.sessDurs, 0.99)
	}
	packets := float64(b1.packets - b0.packets)
	rep.set("udpnet.batch_p50_us", "us", batch50)
	rep.set("udpnet.batch_p99_us", "us", batch99)
	rep.set("udpnet.packets_per_token", "packets/token", ratio(packets, tokensB))
	rep.set("udpnet.frames_per_packet", "frames/packet", ratio(rpcs, packets))
	rep.set("udpnet.retransmits_per_packet", "retx/packet", ratio(float64(b1.retrans-b0.retrans), packets))
	rep.set("udpnet.recv_packets_per_batch", "packets/batch",
		ratio(shardDelta(wire.MetricShardRecvBatchPackets), shardDelta(wire.MetricShardRecvBatches)))
	rep.set("udpnet.shard_drops", "count", shardDelta(wire.MetricShardDrops))

	rep.set("ctlplane.scrape_us", "us", mean(ts.scrapeDurs)/1e3)
	rep.set("ctlplane.samples_per_scrape", "samples/scrape", ratio(float64(pb.scrapeSamples), float64(pb.scrapes)))

	rep.set("runtime.allocs_per_token", "allocs/token", ratio(float64(a1.mallocs-a0.mallocs), tokensA))
	rep.set("runtime.gc_cycles_per_mtoken", "gc/Mtoken", ratio(float64(a1.gcs-a0.gcs), tokensA)*1e6)

	plain, traced := pa.rate(), pb.rate()
	rep.set("trace.untraced_tokens_per_s", "1/s", plain)
	rep.set("trace.traced_tokens_per_s", "1/s", traced)
	rep.set("trace.overhead_frac", "frac", ratio(plain-traced, plain))
	rep.set("trace.ops", "count", ops)
	rep.set("trace.unreconciled_ops", "count", float64(ts.unreconciled))
	rep.note("samples: per-layer figures come from %d traced ops (%d spans, %d dropped); exchange percentiles over %d exchange spans, batch percentiles over %d session spans, scrape mean over %d scrapes",
		ts.ops, ts.spans, ts.dropped, len(ts.exchDurs), len(ts.sessDurs), len(ts.scrapeDurs))
	rep.note("samples: xport.*_p99_us are read from the counter's own latency histograms (2x buckets), interpolated as histogram_quantile does, over the traced phase")
}
