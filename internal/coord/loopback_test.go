package coord

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptffedrec/internal/comm"
	"ptffedrec/internal/data"
	"ptffedrec/internal/fed"
	"ptffedrec/internal/models"
)

const (
	testSeed = 42
	testFrac = 0.2
)

// testSplit builds the shared world through the same recipe the participant
// reconstructs from a JoinAck, so the reference trainer and the networked
// path train on identical data.
func testSplit() *data.Split { return data.StreamSplit(data.Tiny, testSeed, testFrac) }

func testConfig(server models.Kind, workers int) fed.Config {
	cfg := fed.DefaultConfig(server)
	cfg.ClientModel = models.KindMF
	cfg.Rounds = 2
	cfg.EvalEvery = 1
	cfg.ClientEpochs = 1
	cfg.ServerEpochs = 1
	cfg.Dim = 8
	cfg.Alpha = 10
	cfg.LR = 5e-3
	cfg.Workers = workers
	cfg.EvalWorkers = workers
	return cfg
}

func testOptions() Options {
	return Options{Profile: data.Tiny.Name, DataSeed: testSeed, TestFrac: testFrac}
}

// requireEqualHistories compares two training traces with bitwise float
// equality — the loopback contract mirrors the in-process engine's.
func requireEqualHistories(t *testing.T, label string, a, b *fed.History) {
	t.Helper()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("%s: round %d differs:\n  %+v\n  %+v", label, i, a.Rounds[i], b.Rounds[i])
		}
	}
	if a.Final != b.Final || a.MeanAttackF1 != b.MeanAttackF1 {
		t.Fatalf("%s: final results differ: %+v/%v vs %+v/%v",
			label, a.Final, a.MeanAttackF1, b.Final, b.MeanAttackF1)
	}
}

// referenceHistory runs the in-process trainer on the same world.
func referenceHistory(t *testing.T, cfg fed.Config) *fed.History {
	t.Helper()
	tr, err := fed.NewTrainer(testSplit(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runNetworked drives a full coordinator run over a loopback HTTP server with
// one participant per user range, returning the coordinator's history.
func runNetworked(t *testing.T, cfg fed.Config, opts Options, ranges [][2]int) (*fed.History, *Coordinator) {
	t.Helper()
	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		p, err := Join(srv.URL, r[0], r[1], srv.Client())
		if err != nil {
			t.Fatalf("join [%d, %d): %v", r[0], r[1], err)
		}
		wg.Add(1)
		go func(i int, p *Participant) {
			defer wg.Done()
			errs[i] = p.Run(ctx)
		}(i, p)
	}
	h, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d: %v", i, err)
		}
	}
	return h, c
}

// TestLoopbackBitwise is the tentpole contract: a coordinator plus two
// participants over a loopback HTTP transport reproduces the in-process
// fed.Trainer history bitwise, across server model kinds and worker counts.
func TestLoopbackBitwise(t *testing.T) {
	kinds := []models.Kind{models.KindNeuMF, models.KindLightGCN}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, server := range kinds {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", server, workers), func(t *testing.T) {
				cfg := testConfig(server, workers)
				ref := referenceHistory(t, cfg)
				h, c := runNetworked(t, cfg, testOptions(), [][2]int{{0, 20}, {20, 40}})
				requireEqualHistories(t, fmt.Sprintf("%s/w%d", server, workers), ref, h)
				if in, out := c.WireBytes(); in <= 0 || out <= 0 {
					t.Fatalf("transport meter did not move: in=%d out=%d", in, out)
				}
			})
		}
	}
}

// TestLoopbackBitwiseFaulted pins the fault routing through the transport: a
// FaultPlan's dropouts arrive as empty upload bodies and its truncations as
// upload streams cut before MsgUploadEnd, and the server-side classification
// reproduces the in-process faulted history bitwise. uploadChunkPreds shrinks
// so truncated uploads still span several chunk frames on the tiny catalogue.
func TestLoopbackBitwiseFaulted(t *testing.T) {
	defer func(old int) { uploadChunkPreds = old }(uploadChunkPreds)
	uploadChunkPreds = 3

	cfg := testConfig(models.KindLightGCN, 4)
	cfg.Faults = fed.FaultPlan{DropoutRate: 0.3, TruncateRate: 0.5}
	ref := referenceHistory(t, cfg)
	dropped := 0
	for _, rs := range ref.Rounds {
		dropped += rs.Dropped
	}
	if dropped == 0 {
		t.Fatal("fault plan produced no dropouts; the test exercises nothing")
	}
	h, _ := runNetworked(t, cfg, testOptions(), [][2]int{{0, 15}, {15, 40}})
	requireEqualHistories(t, "faulted loopback", ref, h)
}

// TestStragglerDeadline covers partial participation: one live participant
// and one registered-but-silent session. The round deadline fires, the silent
// host's users are counted as dropped, and the run completes every round
// instead of waiting forever.
func TestStragglerDeadline(t *testing.T) {
	cfg := testConfig(models.KindNeuMF, 2)
	opts := testOptions()
	opts.Deadline = 500 * time.Millisecond

	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if _, err := Join(srv.URL, 20, 40, srv.Client()); err != nil {
		t.Fatalf("silent join: %v", err)
	}
	live, err := Join(srv.URL, 0, 20, srv.Client())
	if err != nil {
		t.Fatalf("live join: %v", err)
	}
	var wg sync.WaitGroup
	var liveErr error
	wg.Add(1)
	go func() { defer wg.Done(); liveErr = live.Run(ctx) }()

	h, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	wg.Wait()
	if liveErr != nil {
		t.Fatalf("live participant: %v", liveErr)
	}
	if len(h.Rounds) != cfg.Rounds {
		t.Fatalf("run produced %d rounds, want %d", len(h.Rounds), cfg.Rounds)
	}
	for _, rs := range h.Rounds {
		// ClientFraction 1.0 selects every user: the silent host's 20 are
		// dropped by the deadline every round.
		if rs.Dropped < 20 {
			t.Fatalf("round %d: %d dropped, want at least the 20 silent-hosted users", rs.Round, rs.Dropped)
		}
		if rs.Dropped == rs.Participants {
			t.Fatalf("round %d: every client dropped; the live half never landed", rs.Round)
		}
	}
}

// TestJoinLeaveLifecycle pins the registry rules: overlapping and
// out-of-range joins are refused, a vacated range can be re-joined, leaving
// mid-round resolves the departed host's pending users as dropped, and a join
// after the run finished receives an immediate shutdown.
func TestJoinLeaveLifecycle(t *testing.T) {
	cfg := testConfig(models.KindMF, 2)
	c, err := New(testSplit(), cfg, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p1, err := Join(srv.URL, 0, 20, srv.Client())
	if err != nil {
		t.Fatalf("first join: %v", err)
	}
	if _, err := Join(srv.URL, 10, 30, srv.Client()); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping join: err = %v, want overlap refusal", err)
	}
	if _, err := Join(srv.URL, 30, 99, srv.Client()); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("out-of-range join: err = %v, want range refusal", err)
	}
	p1.leave(ctx)
	p2, err := Join(srv.URL, 10, 30, srv.Client())
	if err != nil {
		t.Fatalf("re-join of vacated range: %v", err)
	}

	// p2 never polls. Round 0 waits on its hosted users (no deadline set);
	// leaving must resolve them as dropped so the run can finish.
	done := make(chan struct{})
	var h *fed.History
	var runErr error
	go func() {
		defer close(done)
		h, runErr = c.Run(ctx)
	}()
	time.Sleep(100 * time.Millisecond)
	p2.leave(ctx)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not finish after the sole session left")
	}
	if runErr != nil {
		t.Fatalf("coordinator run: %v", runErr)
	}
	for _, rs := range h.Rounds {
		if rs.Dropped != rs.Participants {
			t.Fatalf("round %d: %d of %d dropped, want all (nobody hosted anyone)",
				rs.Round, rs.Dropped, rs.Participants)
		}
	}

	// The coordinator is down: a late joiner is told to shut down at once.
	p3, err := Join(srv.URL, 0, 5, srv.Client())
	if err != nil {
		t.Fatalf("post-run join: %v", err)
	}
	if err := p3.Run(ctx); err != nil {
		t.Fatalf("post-run participant should see an immediate shutdown: %v", err)
	}
}

// encodeUpload builds an upload body for readUpload tests.
func encodeUpload(round, user int, codec comm.Codec, preds []comm.Prediction, sendPreds int, end bool) []byte {
	var b bytes.Buffer
	comm.WriteFrame(&b, comm.MsgUploadBegin, comm.EncodeUploadBegin(comm.UploadBegin{
		Round: round, User: user, Codec: codec, Count: len(preds),
		Loss: 0.25, AttackF1: 0.5,
	}))
	payload := codec.Encode(preds)[:sendPreds*codec.WireSize()]
	for off := 0; off < len(payload); off += 2 * codec.WireSize() {
		hi := off + 2*codec.WireSize()
		if hi > len(payload) {
			hi = len(payload)
		}
		comm.WriteFrame(&b, comm.MsgUploadChunk, payload[off:hi])
	}
	if end {
		comm.WriteFrame(&b, comm.MsgUploadEnd, nil)
	}
	return b.Bytes()
}

// TestReadUploadClassification pins the server-side body classification:
// empty body → drop, missing end frame → truncated prefix, end frame →
// complete, and protocol violations → errors.
func TestReadUploadClassification(t *testing.T) {
	c := &Coordinator{split: &data.Split{NumItems: 60}}
	codec := comm.CodecFor(false)
	preds := []comm.Prediction{
		{User: 7, Item: 3, Score: 0.5},
		{User: 7, Item: 9, Score: 0},
		{User: 7, Item: 12, Score: 1},
		{User: 7, Item: 44, Score: 0.125},
	}

	o, err := c.readUpload(bytes.NewReader(nil), 1, 7)
	if err != nil || !o.Dropped {
		t.Fatalf("empty body: outcome %+v, err %v; want a drop", o, err)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, preds, len(preds), true)), 1, 7)
	if err != nil || o.Dropped || len(o.Upload) != len(preds) {
		t.Fatalf("complete body: outcome %+v, err %v; want %d predictions", o, err, len(preds))
	}
	for i := range preds {
		if o.Upload[i] != preds[i] {
			t.Fatalf("complete body: prediction %d = %+v, want %+v", i, o.Upload[i], preds[i])
		}
	}
	if o.UploadBytes != len(preds)*codec.WireSize() {
		t.Fatalf("complete body: UploadBytes = %d, want %d", o.UploadBytes, len(preds)*codec.WireSize())
	}
	if o.Loss != 0.25 || o.AttackF1 != 0.5 {
		t.Fatalf("complete body: metrics %v/%v did not survive the begin frame", o.Loss, o.AttackF1)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, preds, 2, false)), 1, 7)
	if err != nil || o.Dropped || len(o.Upload) != 2 {
		t.Fatalf("truncated body: outcome %+v, err %v; want the 2-prediction prefix", o, err)
	}

	o, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, preds, 0, false)), 1, 7)
	if err != nil || !o.Dropped {
		t.Fatalf("begin-only body: outcome %+v, err %v; want a drop", o, err)
	}

	if _, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, preds, 2, true)), 1, 7); err == nil {
		t.Fatal("count mismatch with end frame must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader(encodeUpload(2, 7, codec, preds, 4, true)), 1, 7); err == nil {
		t.Fatal("round mismatch must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader([]byte("not a frame stream")), 1, 7); err == nil {
		t.Fatal("garbage bytes must be a protocol error")
	}
	if _, err = c.readUpload(bytes.NewReader(comm.AppendFrame(nil, comm.MsgAck, nil)), 1, 7); err == nil {
		t.Fatal("a non-begin opening frame must be a protocol error")
	}

	// Predictions the engine cannot absorb are protocol errors, even in a
	// truncated stream: items outside [0, NumItems), rows for another user,
	// and scores that are not finite or lie outside [0,1].
	for name, bad := range map[string]comm.Prediction{
		"item past the catalogue": {User: 7, Item: 1 << 20, Score: 0.5},
		"item at NumItems":        {User: 7, Item: 60, Score: 0.5},
		"negative item":           {User: 7, Item: -1, Score: 0.5},
		"another user":            {User: 8, Item: 3, Score: 0.5},
		"negative score":          {User: 7, Item: 3, Score: -0.25},
		"score above 1":           {User: 7, Item: 3, Score: 1.5},
		"NaN score":               {User: 7, Item: 3, Score: math.NaN()},
		"+Inf score":              {User: 7, Item: 3, Score: math.Inf(1)},
	} {
		hostile := []comm.Prediction{preds[0], bad}
		for _, end := range []bool{true, false} {
			if _, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, hostile, 2, end)), 1, 7); err == nil {
				t.Fatalf("%s (end frame %v) must be a protocol error", name, end)
			}
		}
	}

	// A body may not carry more predictions than the catalogue has items.
	tooMany := oversizedUpload(7, 60)
	for _, end := range []bool{true, false} {
		if _, err = c.readUpload(bytes.NewReader(encodeUpload(1, 7, codec, tooMany, len(tooMany), end)), 1, 7); err == nil {
			t.Fatalf("more than NumItems predictions (end frame %v) must be a protocol error", end)
		}
	}
}

// oversizedUpload returns numItems+1 otherwise valid predictions for user.
func oversizedUpload(user, numItems int) []comm.Prediction {
	preds := make([]comm.Prediction, numItems+1)
	for i := range preds {
		preds[i] = comm.Prediction{User: user, Item: i % numItems, Score: 0.5}
	}
	return preds
}

// FuzzReadUpload feeds arbitrary bytes to the upload ingress. Whatever the
// body, readUpload must not panic, and any outcome it accepts must be one the
// engine can absorb: the request's user everywhere, items in the catalogue,
// finite scores in [0,1], and at most NumItems predictions.
func FuzzReadUpload(f *testing.F) {
	const user, numItems = 7, 60
	preds := []comm.Prediction{
		{User: user, Item: 3, Score: 0.5},
		{User: user, Item: 9, Score: 0},
		{User: user, Item: 12, Score: 1},
		{User: user, Item: 44, Score: 0.125},
	}
	for _, codec := range []comm.Codec{comm.CodecFor(false), comm.CodecFor(true)} {
		f.Add(encodeUpload(1, user, codec, preds, len(preds), true))
		f.Add(encodeUpload(1, user, codec, preds, 2, false))
		f.Add(encodeUpload(1, user, codec, preds, 0, false))
		f.Add(encodeUpload(1, user, codec, preds, 2, true))
		f.Add(encodeUpload(1, user, codec, []comm.Prediction{preds[0], {User: user, Item: 3, Score: math.NaN()}}, 2, true))
		f.Add(encodeUpload(1, user, codec, oversizedUpload(user, numItems), numItems+1, false))
	}
	f.Add([]byte(nil))
	f.Add([]byte("not a frame stream"))
	c := &Coordinator{split: &data.Split{NumItems: numItems}}
	f.Fuzz(func(t *testing.T, body []byte) {
		o, err := c.readUpload(bytes.NewReader(body), 1, user)
		if err != nil {
			return
		}
		if o.ID != user {
			t.Fatalf("accepted outcome for user %d, request says %d", o.ID, user)
		}
		if len(o.Upload) > numItems {
			t.Fatalf("accepted %d predictions, catalogue has %d items", len(o.Upload), numItems)
		}
		for _, p := range o.Upload {
			if p.User != user || p.Item < 0 || p.Item >= numItems || !(p.Score >= 0 && p.Score <= 1) {
				t.Fatalf("accepted prediction %+v", p)
			}
		}
	})
}

// TestOutOfRangeItemUploadOverHTTP sends well-formed uploads that the engine
// must not absorb — item 1<<20, a NaN score, a score above 1, and more
// predictions than the catalogue has items — each for its own cohort user,
// while a real participant serves the other half of the users: the
// coordinator must reject each with MsgError, keep serving, and close the
// round with those slots dropped, and the honest participant must finish the
// run.
func TestOutOfRangeItemUploadOverHTTP(t *testing.T) {
	cfg := testConfig(models.KindLightGCN, 1)
	cfg.Rounds = 1
	opts := testOptions()
	opts.Deadline = 500 * time.Millisecond
	sp := testSplit()

	c, err := New(sp, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	half := sp.NumUsers / 2
	honest, err := Join(srv.URL, 0, half, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := Join(srv.URL, half, sp.NumUsers, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	honestErr := make(chan error, 1)
	go func() { honestErr <- honest.Run(ctx) }()
	done := make(chan struct{})
	var h *fed.History
	var runErr error
	go func() {
		defer close(done)
		h, runErr = c.Run(ctx)
	}()

	// ClientFraction 1.0 puts every user in round 0's cohort. Each hostile
	// body goes to its own cohort user.
	codec := comm.CodecFor(cfg.QuantizeScores)
	for i, bad := range []struct {
		name  string
		preds []comm.Prediction
	}{
		{"out-of-range item", []comm.Prediction{{Item: 1 << 20, Score: 0.9}}},
		{"NaN score", []comm.Prediction{{Item: 1, Score: math.NaN()}}},
		{"score above 1", []comm.Prediction{{Item: 1, Score: 3}}},
		{"more than NumItems predictions", oversizedUpload(0, sp.NumItems)},
	} {
		user := half + i
		for j := range bad.preds {
			bad.preds[j].User = user
		}
		body := encodeUpload(0, user, codec, bad.preds, len(bad.preds), true)
		resp, err := srv.Client().Post(
			fmt.Sprintf("%s/v1/upload?token=%d&round=0&user=%d", srv.URL, hostile.Token(), user),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		mt, payload, err := comm.ReadFrame(resp.Body)
		resp.Body.Close()
		if err != nil || mt != comm.MsgError {
			t.Fatalf("%s upload reply: %v %q err=%v, want MsgError", bad.name, mt, payload, err)
		}
	}

	<-done
	if runErr != nil || h == nil || len(h.Rounds) != 1 {
		t.Fatalf("run did not complete after the hostile uploads: %+v, %v", h, runErr)
	}
	// The hostile session never uploads anything valid: its whole range,
	// the rejected slots included, closes as dropped; the honest half trains.
	if rs := h.Rounds[0]; rs.Participants != sp.NumUsers || rs.Dropped != sp.NumUsers-half {
		t.Fatalf("round %+v: want %d participants with the %d hostile-range slots dropped",
			rs, sp.NumUsers, sp.NumUsers-half)
	}
	if err := <-honestErr; err != nil {
		t.Fatalf("honest participant: %v", err)
	}
}

// TestMalformedUploadOverHTTP drives a garbage upload through the HTTP layer:
// the server answers MsgError, resolves the slot as dropped, and the run
// still completes under the deadline.
func TestMalformedUploadOverHTTP(t *testing.T) {
	cfg := testConfig(models.KindMF, 1)
	cfg.Rounds = 1
	opts := testOptions()
	opts.Deadline = 300 * time.Millisecond

	c, err := New(testSplit(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	p, err := Join(srv.URL, 0, 40, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var h *fed.History
	go func() {
		defer close(done)
		h, _ = c.Run(ctx)
	}()

	resp, err := srv.Client().Post(
		fmt.Sprintf("%s/v1/upload?token=%d&round=0&user=3", srv.URL, p.Token()),
		"application/octet-stream", strings.NewReader(strings.Repeat("garbage", 4)))
	if err != nil {
		t.Fatal(err)
	}
	mt, payload, err := comm.ReadFrame(resp.Body)
	resp.Body.Close()
	if err != nil || mt != comm.MsgError {
		t.Fatalf("garbage upload reply: %v %q err=%v, want MsgError", mt, payload, err)
	}

	<-done
	if h == nil || len(h.Rounds) != 1 {
		t.Fatalf("run did not complete after malformed upload: %+v", h)
	}
	if h.Rounds[0].Dropped == 0 {
		t.Fatal("malformed upload should have left its user dropped")
	}
}
