package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"os"
	"sort"

	"repro/internal/telemetry"
)

// ownSpan is a span the benchmark records itself: one Deployment.Invoke
// of the timed phase (Kind "invoke", Name the op).
type ownSpan struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// traceDump is everything a traced round recorded in its timed phase.
type traceDump struct {
	t0, t1  int64
	n       int
	core    []telemetry.Span // exec, step and call spans from the telemetry hub
	own     []ownSpan
	store   []seamSpan // deployment-side seam
	server  []seamSpan // server-side seam (remote only)
	overlay bool
	remote  bool
	passes  []interval // collector passes; no request runs during one
}

type interval struct{ start, end int64 }

func inside(ivs []interval, t int64) bool {
	for _, iv := range ivs {
		if iv.start <= t && t < iv.end {
			return true
		}
	}
	return false
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi int64) int64 {
	var clip []interval
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clip = append(clip, interval{s, e})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].start < clip[j].start })
	var total, curS, curE int64
	for i, iv := range clip {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
		} else if iv.end > curE {
			curE = iv.end
		}
	}
	return total + curE - curS
}

// analyze splits the timed phase's request wall time into layers and adds
// the traced per-layer metrics to m. All times are busy times summed over
// the concurrent requests, divided by the request count:
//
//   - platform dispatch: each call span minus its callee's exec span, plus
//     each Deployment.Invoke minus its root exec span, less the storage
//     calls that bracket every call (the caller's invoke-log write and the
//     callee's intent write, see seamSpan.Bracket) and less the entry
//     reply's tail;
//   - pipeline fence: the entry reply's tail, from its root exec span's end
//     to Invoke's return, where the reply waits at the speculation fence;
//   - core self: exec-span time not covered by child calls, child execs or
//     the other storage calls;
//   - storage: time inside the deployment-side seam on request paths;
//   - unaccounted: request wall time minus the four. Busy times overlap
//     where an SSF runs calls in parallel, so it reads below 0 there.
//
// Storage calls made during a collector pass are left out (no request runs
// then); beneath a speculation overlay every TransactWrite is a committer
// flush, timed separately.
func analyze(t *traceDump, m map[string]float64) {
	in := func(s, e int64) bool { return s >= t.t0 && e <= t.t1 }
	n := float64(t.n)
	perReqMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	p50us := func(ns []float64) float64 { return median(ns) / 1e3 }

	invokes := append([]ownSpan(nil), t.own...)
	var wall int64
	for _, s := range invokes {
		wall += s.End - s.Start
	}

	execs := map[string]telemetry.Span{}
	children := map[string][]interval{} // by parent intent
	steps := map[string][]float64{}
	var roots []telemetry.Span
	var execTotal, rootExec int64
	for _, s := range t.core {
		if !in(s.Start, s.End) {
			continue
		}
		iv := interval{s.Start, s.End}
		switch s.Kind {
		case telemetry.KindExec:
			if s.Name == "deduplicated" {
				continue
			}
			execs[s.Intent] = s
			execTotal += s.End - s.Start
			if s.ParentIntent == "" {
				roots = append(roots, s)
				rootExec += s.End - s.Start
			} else {
				children[s.ParentIntent] = append(children[s.ParentIntent], iv)
			}
		case telemetry.KindCall, telemetry.KindAsync:
			children[s.Intent] = append(children[s.Intent], iv)
			steps["call"] = append(steps["call"], float64(s.End-s.Start))
		case telemetry.KindRead, telemetry.KindWrite, telemetry.KindLock:
			steps[string(s.Kind)] = append(steps[string(s.Kind)], float64(s.End-s.Start))
		}
	}
	gaps := wall - rootExec
	for _, s := range t.core {
		if (s.Kind == telemetry.KindCall || s.Kind == telemetry.KindAsync) && in(s.Start, s.End) {
			gaps += s.End - s.Start
			if c, ok := execs[s.Child]; ok {
				gaps -= c.End - c.Start
			}
		}
	}
	exclusive := execTotal
	for intent, e := range execs {
		exclusive -= covered(children[intent], e.Start, e.End)
	}

	// Each root exec span lies inside the Invoke that caused it; with two
	// clients, take the Invoke that contains it most tightly.
	sort.Slice(invokes, func(i, j int) bool { return invokes[i].Start < invokes[j].Start })
	var tail int64
	for _, r := range roots {
		slack, after := int64(-1), int64(0)
		k := sort.Search(len(invokes), func(k int) bool { return invokes[k].Start > r.Start }) - 1
		for tries := 0; k >= 0 && tries < 4*clients; k, tries = k-1, tries+1 {
			iv := invokes[k]
			if s := r.Start - iv.Start + iv.End - r.End; iv.End >= r.End && (slack < 0 || s < slack) {
				slack, after = s, iv.End-r.End
			}
		}
		tail += after
	}

	var storeAll, storeFg, storeBracket int64
	opDur := map[opKind][]float64{}
	var flushes []float64
	for _, s := range t.store {
		if !in(s.Start, s.End) || inside(t.passes, s.Start) {
			continue
		}
		storeAll += s.dur()
		opDur[s.Op] = append(opDur[s.Op], float64(s.dur()))
		if t.overlay && s.Op == opTxWrite {
			flushes = append(flushes, float64(s.dur()))
			continue
		}
		storeFg += s.dur()
		if s.Bracket {
			storeBracket += s.dur()
		}
	}
	var server int64
	for _, s := range t.server {
		if in(s.Start, s.End) {
			server += s.dur()
		}
	}

	m["platform.dispatch_ms_per_req"] = perReqMs(gaps - storeBracket - tail)
	m["pipeline.fence_ms_per_req"] = perReqMs(tail)
	m["core.self_ms_per_req"] = perReqMs(exclusive - (storeFg - storeBracket))
	m["storage.ms_per_req"] = perReqMs(storeAll)
	m["trace.unaccounted_ms_per_req"] = perReqMs(wall - gaps - exclusive)
	for _, k := range []string{"read", "write", "lock", "call"} {
		m["core.step_p50_us."+k] = p50us(steps[k])
	}
	for _, k := range dataOps {
		m["storage.op_p50_us."+opNames[k]] = p50us(opDur[k])
	}
	m["pipeline.flush_p50_us"] = p50us(flushes)
	m["remote.server_ms_per_req"], m["remote.wire_ms_per_req"] = 0, 0
	if t.remote {
		m["remote.server_ms_per_req"] = perReqMs(server)
		m["remote.wire_ms_per_req"] = perReqMs(storeAll - server)
	}
}

// write stores the dump as gzip-compressed JSON lines, one span a line.
func (t *traceDump) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type seamLine struct {
		Side string `json:"seam"`
		Op   string `json:"op"`
		seamSpan
	}
	for _, s := range t.core {
		err = errors.Join(err, enc.Encode(s))
	}
	for _, s := range t.own {
		err = errors.Join(err, enc.Encode(s))
	}
	for _, s := range t.store {
		err = errors.Join(err, enc.Encode(seamLine{"deployment", opNames[s.Op], s}))
	}
	for _, s := range t.server {
		err = errors.Join(err, enc.Encode(seamLine{"server", opNames[s.Op], s}))
	}
	return errors.Join(err, bw.Flush(), zw.Close(), f.Close())
}
