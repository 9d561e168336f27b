package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSessionLosslessMatchesReference: a streaming session with shedding
// disabled is the online twin of ReplaySharded — its report must be
// byte-identical to the sequential detector.
func TestSessionLosslessMatchesReference(t *testing.T) {
	tr := recordTrace(t, "raytrace", 7)
	ref := trace.Replay(tr)
	for _, shards := range []int{1, 4, 8} {
		sess := NewSession(SessionConfig{Shards: shards, Workers: 2, BatchSize: 64})
		tr.ForEach(sess.Feed)
		rep := sess.Finish(tr.Name)
		requireIdentical(t, fmt.Sprintf("session shards=%d", shards), ref, rep)
		if rep.Sampled() || rep.Coverage() != 1 {
			t.Fatalf("lossless session reported sampling: shed=%d coverage=%v",
				rep.Shed, rep.Coverage())
		}
	}
}

// streamTrace connects to addr, streams tr, and decodes the response.
func streamTrace(t *testing.T, addr string, tr *trace.Trace) *Response {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

// TestServerManyClients: a real listener serving many concurrent clients;
// every client's reported race text lines must equal offline txtrace-style
// detection of its own trace.
func TestServerManyClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 4, Workers: 2, NoShed: true, Metrics: obs.NewMetrics()})
	go srv.Serve(ln)
	defer srv.Close()

	names := []string{"raytrace", "streamcluster", "freqmine", "x264"}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[i%len(names)]
			tr := recordTrace(t, name, uint64(3+i))
			want := trace.Replay(tr).Races()
			resp := streamTrace(t, ln.Addr().String(), tr)
			if resp.Error != "" {
				errs <- fmt.Errorf("client %d: server error: %s", i, resp.Error)
				return
			}
			if resp.Name != name || resp.Events != uint64(tr.Len()) {
				errs <- fmt.Errorf("client %d: header echo %q/%d, want %q/%d",
					i, resp.Name, resp.Events, name, tr.Len())
				return
			}
			if len(resp.Races) != len(want) {
				errs <- fmt.Errorf("client %d (%s): %d races, offline %d",
					i, name, len(resp.Races), len(want))
				return
			}
			for j, rc := range want {
				if resp.Races[j].Text != rc.String() {
					errs <- fmt.Errorf("client %d (%s): race %d %q, offline %q",
						i, name, j, resp.Races[j].Text, rc.String())
					return
				}
			}
			if resp.Sampled || resp.Coverage != "1.0000" {
				errs <- fmt.Errorf("client %d: lossless server sampled (coverage %s)", i, resp.Coverage)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionFinishIdempotent pins the Finish bugfix: a second Finish —
// what a retrying or misbehaving client amounts to — returns the first
// call's cached report instead of panicking on the already-closed worker
// queues, and the report keeps the name it was finished under. The
// end-to-end half runs the retry over a real listener: the same trace
// streamed twice must produce two identical reports from a live server.
func TestSessionFinishIdempotent(t *testing.T) {
	tr := recordTrace(t, "raytrace", 7)
	sess := NewSession(SessionConfig{Shards: 4, Workers: 2, BatchSize: 64})
	tr.ForEach(sess.Feed)
	r1 := sess.Finish(tr.Name)
	r2 := sess.Finish("retry-after-finish")
	if r2 != r1 {
		t.Fatalf("second Finish returned a new report: %p vs %p", r2, r1)
	}
	if r2.Name != tr.Name {
		t.Fatalf("cached report renamed to %q, want %q", r2.Name, tr.Name)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 4, Workers: 2, NoShed: true})
	go srv.Serve(ln)
	defer srv.Close()

	first := streamTrace(t, ln.Addr().String(), tr)
	retry := streamTrace(t, ln.Addr().String(), tr)
	if first.Error != "" || retry.Error != "" {
		t.Fatalf("server errors: %q / %q", first.Error, retry.Error)
	}
	if !reflect.DeepEqual(first, retry) {
		t.Fatalf("retried stream got a different report:\n first %+v\n retry %+v", first, retry)
	}
}

// TestServerRejectsGarbage: malformed streams get a JSON error, not a hang
// or a crash.
func TestServerRejectsGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("definitely not a trace stream"))
	var resp Response
	if err := json.NewDecoder(c).Decode(&resp); err != nil {
		t.Fatalf("no JSON error response: %v", err)
	}
	if resp.Error == "" {
		t.Fatal("garbage stream accepted without error")
	}

	// A truncated stream — valid header, events cut mid-record — must come
	// back as a structured error naming the wire version and byte offset.
	tr := recordTrace(t, "raytrace", 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Write(buf.Bytes()[:buf.Len()/2])
	if tc, ok := c2.(*net.TCPConn); ok {
		tc.CloseWrite() // end of stream mid-record, like a dying client
	}
	var trunc Response
	if err := json.NewDecoder(c2).Decode(&trunc); err != nil {
		t.Fatalf("no JSON error response for truncated stream: %v", err)
	}
	for _, want := range []string{"wire v2", "offset", "unexpected EOF"} {
		if !strings.Contains(trunc.Error, want) {
			t.Fatalf("truncation error %q lacks %q", trunc.Error, want)
		}
	}

	// A hostile thread id gets a structured error and harms no other
	// session: a lossless session streaming concurrently on the same server
	// still reports exactly the offline race list.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Shards: 4, Workers: 2, NoShed: true})
	go srv2.Serve(ln2)
	defer srv2.Close()
	good, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	half := buf.Len() / 2
	good.Write(buf.Bytes()[:half])

	var hostile bytes.Buffer
	if _, err := trace.FromEvents("h", trace.Event{Kind: trace.KAccess, Site: 1, Addr: 0x40}).WriteToV1(&hostile); err != nil {
		t.Fatal(err)
	}
	raw := hostile.Bytes()
	binary.LittleEndian.PutUint32(raw[len(raw)-28+4:], 0xfffffffb) // tid -5
	bad, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.Write(raw)
	var badResp Response
	if err := json.NewDecoder(bad).Decode(&badResp); err != nil {
		t.Fatalf("no JSON error response for hostile tid: %v", err)
	}
	for _, want := range []string{"wire v1", "event 0", "thread id -5 out of range"} {
		if !strings.Contains(badResp.Error, want) {
			t.Fatalf("hostile-tid error %q lacks %q", badResp.Error, want)
		}
	}

	good.Write(buf.Bytes()[half:])
	var goodResp Response
	if err := json.NewDecoder(good).Decode(&goodResp); err != nil {
		t.Fatalf("concurrent session got no response: %v", err)
	}
	want := trace.Replay(tr).Races()
	if goodResp.Error != "" || len(goodResp.Races) != len(want) {
		t.Fatalf("concurrent session: error %q, %d races, want %d", goodResp.Error, len(goodResp.Races), len(want))
	}
	for i, rc := range want {
		if goodResp.Races[i].Text != rc.String() {
			t.Fatalf("concurrent session race %d: %q, want %q", i, goodResp.Races[i].Text, rc.String())
		}
	}
}

// TestGovernorShedsUnderOverload forces overload deterministically: workers
// are gated shut while ingestion floods the queues, so the governor must
// trip into sampling mode, never block Feed, and report honest coverage —
// with the surviving races a subset of the full set.
func TestGovernorShedsUnderOverload(t *testing.T) {
	tr := recordTrace(t, "streamcluster", 7)
	full := trace.Replay(tr)
	fullKeys := make(map[detect.PairKey]bool)
	for _, k := range full.RaceKeys() {
		fullKeys[k] = true
	}

	gate := make(chan struct{})
	var once sync.Once
	sess := NewSession(SessionConfig{
		Shards: 4, Workers: 1, BatchSize: 8, QueueBatches: 2, Shed: true,
		workerGate: func(int) { <-gate },
	})
	done := make(chan *Report, 1)
	go func() {
		tr.ForEach(func(e trace.Event) {
			sess.Feed(e)
			if sess.trips > 0 {
				once.Do(func() { close(gate) }) // release workers after first trip
			}
		})
		once.Do(func() { close(gate) })
		done <- sess.Finish(tr.Name)
	}()
	rep := <-done

	if rep.Shed == 0 || rep.GovernorTrips == 0 {
		t.Fatalf("overload never tripped the governor: shed=%d trips=%d", rep.Shed, rep.GovernorTrips)
	}
	if !rep.Sampled() {
		t.Fatal("Sampled() false after shedding")
	}
	if cov := rep.Coverage(); cov >= 1 || cov <= 0 {
		t.Fatalf("coverage %v out of (0,1) after shedding", cov)
	}
	if rep.Checks+rep.Shed != full.Checks {
		t.Fatalf("analyzed %d + shed %d != total accesses %d", rep.Checks, rep.Shed, full.Checks)
	}
	for _, k := range rep.RaceKeys() {
		if !fullKeys[k] {
			t.Fatalf("sampling-mode run invented race %v not in the full set", k)
		}
	}
}

// TestServerMetrics: the obs counters must reflect a served session.
func TestServerMetrics(t *testing.T) {
	m := obs.NewMetrics()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Shards: 2, NoShed: true, Metrics: m})
	go srv.Serve(ln)

	tr := recordTrace(t, "raytrace", 7)
	resp := streamTrace(t, ln.Addr().String(), tr)
	srv.Close()

	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if got := m.Counter("server.events").Value(); got != uint64(tr.Len()) {
		t.Fatalf("server.events = %d, want %d", got, tr.Len())
	}
	if m.Counter("server.conns").Value() != 1 {
		t.Fatalf("server.conns = %d, want 1", m.Counter("server.conns").Value())
	}
	if got := m.Counter("server.analyzed").Value(); got != resp.Analyzed {
		t.Fatalf("server.analyzed = %d, response said %d", got, resp.Analyzed)
	}
	if m.Gauge("server.sessions.active").Value() != 0 {
		t.Fatal("sessions gauge not back to 0 after session end")
	}
}
