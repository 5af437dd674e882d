package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ptffedrec/internal/eval"
	"ptffedrec/internal/fed"
)

// runResult is one run of a workload through its production entry point.
type runResult struct {
	history *fed.History
	setupS  float64
	roundS  float64
	// wireBytes is every byte exchanged in both directions.
	wireBytes int64
	// net is what crossed the loopback transport (nil in process).
	net *netStats
}

// requests returns the run's HTTP requests and how many of them failed.
func (r *runResult) requests() (total, failed int64) {
	if r.net == nil {
		return 0, 0
	}
	return r.net.requests.Load(), r.net.failed.Load()
}

// runInproc runs the workload through fed.Trainer.Run. Set-up covers the
// split, the trainer (client host and round engine) and the candidate cache.
func runInproc(w workload, seed uint64, nproc int) (*runResult, error) {
	cfg := w.config(seed, nproc)
	start := time.Now()
	sp, err := w.split(seed)
	if err != nil {
		return nil, err
	}
	tr, err := fed.NewTrainer(sp, cfg)
	if err != nil {
		return nil, err
	}
	tr.ShareEvaluator(eval.NewEvaluatorWorkers(sp, cfg.EvalWorkers))
	setupS := time.Since(start).Seconds()

	start = time.Now()
	h, err := tr.Run()
	if err != nil {
		return nil, err
	}
	roundS := time.Since(start).Seconds() / float64(cfg.Rounds)
	m := tr.Meter()
	return &runResult{
		history:   h,
		setupS:    setupS,
		roundS:    roundS,
		wireBytes: m.TotalUp() + m.TotalDown(),
	}, nil
}

// runWorkload runs the workload once, untraced, through its production entry
// point.
func runWorkload(w workload, seed uint64, nproc int) (*runResult, error) {
	if w.loopback {
		return runLoopback(w, seed, nproc, nil)
	}
	return runInproc(w, seed, nproc)
}

// Repetition bounds of an untraced run: at least minReps so every metric is
// a median of several, at most maxReps however short the workload.
const (
	minReps = 2
	maxReps = 10
)

// report is one benchmark run's verdict and metrics.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           *metricSet
	// mismatches describes every failed correctness check.
	mismatches []string
}

func newReport(defs []metricDef) *report {
	return &report{correct: true, metrics: newMetricSet(defs)}
}

// check counts one production run: its cohort slots, its HTTP requests and
// its correctness check are attempted operations; slots lost beyond the
// reference's FaultPlan dropouts, failed requests and a history that differs
// from the reference are failures.
func (rep *report) check(what string, r *runResult, ref *fed.History) {
	att, _ := slots(r.history)
	requests, failedRequests := r.requests()
	rep.attempted += att + requests + 1
	rep.failed += lostSlots(r.history, ref) + failedRequests
	if d := historyDiff(r.history, ref); d != "" {
		rep.failed++
		rep.correct = false
		rep.mismatches = append(rep.mismatches, what+": "+d)
	}
}

// measure is the untraced run (-trace 0). It repeats set-up plus the
// production run (fed.Trainer.Run, or coord.Coordinator.Run on loopback)
// until `seconds` have passed, at least minReps times, each repetition from a
// fresh peak-RSS mark. Every history must equal, bitwise, the serialized
// in-process drive of the same workload and seed, which runs once at the end.
// Each repetition's figures are printed to out as it ends.
func measure(out io.Writer, w workload, seed uint64, seconds float64, nproc int) (*report, error) {
	rep := newReport(endToEnd)
	var runs []*runResult
	var setupS, roundS, rssMB, bytesPerClient []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) < minReps || (len(runs) < maxReps && time.Now().Before(deadline)) {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		r, err := runWorkload(w, seed, nproc)
		if err != nil {
			return nil, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		_, responded := slots(r.history)
		fmt.Fprintf(out, "repetition %d: setup_s %.4f round_s %.4f peak_rss_mb %.1f\n", len(runs), r.setupS, r.roundS, peak)
		runs = append(runs, r)
		setupS = append(setupS, r.setupS)
		roundS = append(roundS, r.roundS)
		rssMB = append(rssMB, peak)
		bytesPerClient = append(bytesPerClient, float64(r.wireBytes)/float64(max(1, responded)))
	}
	freeMemory()
	ref, err := serialDrive(w, seed, nproc, newRecorder(), nil)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		rep.check(fmt.Sprintf("repetition %d", i), r, ref.history)
	}

	m := rep.metrics
	m.set("round_s", median(roundS))
	m.set("setup_s", median(setupS))
	m.set("peak_rss_mb", median(rssMB))
	m.set("bytes_per_client_round", median(bytesPerClient))
	m.set("recall_at_20", runs[0].history.Final.Recall)
	m.set("ndcg_at_20", runs[0].history.Final.NDCG)
	m.set("ok_share", 1-float64(rep.failed)/float64(rep.attempted))
	return rep, nil
}

// traced is the traced run (-trace 1). It records spans around the calls of
// the serialized in-process drive, then runs the same config untraced through
// fed.Trainer.Run (its round_s against the traced one is the tracing
// overhead) and, for a loopback workload, through the coordinator with the
// transport wrappers timing requests. All histories are checked against the
// traced one. The spans are written to spansDir at the end.
func traced(w workload, seed uint64, nproc int, spansDir string) (*report, error) {
	rep := newReport(perLayer)
	m := rep.metrics
	rec := newRecorder()
	freeMemory()
	ref, err := serialDrive(w, seed, nproc, rec, m)
	if err != nil {
		return nil, err
	}
	rep.check("traced drive", &runResult{history: ref.history}, ref.history)

	freeMemory()
	inproc, err := runInproc(w, seed, nproc)
	if err != nil {
		return nil, err
	}
	rep.check("fed.Trainer.Run", inproc, ref.history)
	m.set("coord.inproc_round_s", inproc.roundS)
	m.set("trace.overhead_share", ref.roundS/inproc.roundS-1)

	var uploads, failedRequests int64
	if w.loopback {
		freeMemory()
		lb, err := runLoopback(w, seed, nproc, rec)
		if err != nil {
			return nil, err
		}
		rep.check("loopback", lb, ref.history)
		uploads = lb.net.uploads.Load()
		_, failedRequests = lb.requests()
	}
	rounds := float64(w.rounds)
	rtt := scale(rec.durations("coord.upload"), 1e3)
	handler := scale(rec.durations("coord.upload_handler"), 1e3)
	m.set("coord.upload_requests_per_round", float64(uploads)/rounds)
	m.set("coord.upload_rtt_ms_p50", percentile(rtt, 50))
	m.set("coord.upload_rtt_ms_p99", percentile(rtt, 99))
	m.set("coord.upload_handler_ms_p50", percentile(handler, 50))
	m.set("coord.upload_handler_ms_p99", percentile(handler, 99))
	m.set("coord.poll_wait_s", rec.total("coord.poll")/rounds/participants)
	m.set("coord.failed_requests", float64(failedRequests))

	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	return rep, nil
}
