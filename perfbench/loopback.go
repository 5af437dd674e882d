package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/coord"
	"ptffedrec/internal/eval"
)

// connCap bounds each participant's open connections: one long poll plus one
// upload stream.
const connCap = 2

// loopbackTimeout bounds one networked run, so a wedged transport fails the
// benchmark instead of hanging it.
const loopbackTimeout = 150 * time.Second

// netStats counts what crossed the loopback transport. The counters are
// always on; spans are recorded only when rec is non-nil.
type netStats struct {
	rec *recorder

	requests, uploads, failed atomic.Int64
	inflightUploads           atomic.Int64
	maxInflightUploads        atomic.Int64
	// maxConns is the most connections any one participant had open at once.
	maxConns atomic.Int64
}

// raise lifts m to at least v.
func raise(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// handler wraps the coordinator's HTTP API: it counts refused requests (the
// coordinator answers a refusal with a MsgError frame), tracks concurrent
// uploads and, when tracing, times each upload handler.
func (s *netStats) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &refusalWriter{ResponseWriter: w}
		upload := r.URL.Path == "/v1/upload"
		id := -1
		if upload {
			raise(&s.maxInflightUploads, s.inflightUploads.Add(1))
			defer s.inflightUploads.Add(-1)
			if s.rec != nil {
				id = s.rec.start("coord.upload_handler", -1, -1)
			}
		}
		h.ServeHTTP(rw, r)
		if id >= 0 {
			s.rec.end(id)
		}
		if rw.refused {
			s.failed.Add(1)
		}
	})
}

// refusalWriter notes whether the response opens with a MsgError frame.
type refusalWriter struct {
	http.ResponseWriter
	wrote, refused bool
}

func (w *refusalWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		// Frame header: magic "PT", version byte, message-type byte.
		w.refused = len(p) >= comm.FrameHeaderSize && p[0] == 'P' && p[1] == 'T' && comm.MsgType(p[3]) == comm.MsgError
	}
	return w.ResponseWriter.Write(p)
}

// client builds one participant's HTTP client: at most connCap connections,
// every request counted, failures counted, and when tracing each upload and
// long poll timed.
func (s *netStats) client() (*http.Client, *http.Transport) {
	var open atomic.Int64
	var dialer net.Dialer
	tr := &http.Transport{
		MaxConnsPerHost:     connCap,
		MaxIdleConnsPerHost: connCap,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := open.Add(1)
			raise(&s.maxConns, n)
			return &countedConn{Conn: c, open: &open}, nil
		},
	}
	return &http.Client{Transport: &countingTransport{s: s, rt: tr}}, tr
}

// countedConn decrements its participant's open-connection count once, on
// the first Close.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// countingTransport is the participant-side wrapper around the HTTP
// transport.
type countingTransport struct {
	s  *netStats
	rt http.RoundTripper
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.s.requests.Add(1)
	name := ""
	switch req.URL.Path {
	case "/v1/upload":
		t.s.uploads.Add(1)
		name = "coord.upload"
	case "/v1/poll":
		name = "coord.poll"
	}
	id := -1
	if t.s.rec != nil && name != "" {
		id = t.s.rec.start(name, -1, -1)
	}
	resp, err := t.rt.RoundTrip(req)
	if id >= 0 {
		t.s.rec.end(id)
	}
	if err != nil {
		t.s.failed.Add(1)
	}
	return resp, err
}

// runLoopback runs the workload through coord.Coordinator.Run with two
// coord.Participants, each hosting half of the users and each limited to
// connCap connections, on a loopback TCP listener in this process. Set-up
// covers the split, the coordinator, its candidate cache and the joins (each
// participant rebuilds the split from the join acknowledgement). rec, when
// non-nil, receives the transport spans.
func runLoopback(w workload, seed uint64, nproc int, rec *recorder) (res *runResult, err error) {
	cfg := w.config(seed, nproc)
	stats := &netStats{rec: rec}
	start := time.Now()
	sp, err := w.split(seed)
	if err != nil {
		return nil, err
	}
	c, err := coord.New(sp, cfg, coord.Options{Profile: w.profile, DataSeed: seed, TestFrac: testFrac})
	if err != nil {
		return nil, err
	}
	c.ShareEvaluator(eval.NewEvaluatorWorkers(sp, cfg.EvalWorkers))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: stats.handler(c.Handler())}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	var transports []*http.Transport
	defer func() {
		cerr := srv.Close()
		if serr := <-serveDone; !errors.Is(serr, http.ErrServerClosed) && cerr == nil {
			cerr = serr
		}
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		if err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("perfbench: loopback server: %w", cerr)
		}
	}()

	base := "http://" + ln.Addr().String()
	var ps []*coord.Participant
	for i := 0; i < participants; i++ {
		lo, hi := i*sp.NumUsers/participants, (i+1)*sp.NumUsers/participants
		hc, tr := stats.client()
		transports = append(transports, tr)
		p, err := coord.Join(base, lo, hi, hc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: join [%d, %d): %w", lo, hi, err)
		}
		ps = append(ps, p)
	}
	setupS := time.Since(start).Seconds()

	ctx, cancel := context.WithTimeout(context.Background(), loopbackTimeout)
	defer cancel()
	errs := make(chan error, len(ps))
	for _, p := range ps {
		go func() {
			perr := p.Run(ctx)
			if perr != nil {
				// A participant that quit leaves the round waiting on its
				// uploads; stop the coordinator too.
				cancel()
			}
			errs <- perr
		}()
	}
	start = time.Now()
	h, runErr := c.Run(ctx)
	roundS := time.Since(start).Seconds() / float64(cfg.Rounds)
	if runErr != nil {
		// Unblock the participants before waiting for them.
		cancel()
	}
	for range ps {
		if perr := <-errs; perr != nil && runErr == nil {
			runErr = perr
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("perfbench: loopback run: %w", runErr)
	}
	in, out := c.WireBytes()
	return &runResult{history: h, setupS: setupS, roundS: roundS, wireBytes: in + out, net: stats}, nil
}
