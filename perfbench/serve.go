package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// The streaming service's layers are measured in the traced replay run, on
// the replay trace: server.NewSession driven in process, and the same bytes
// streamed over loopback TCP to server.Serve running in this process, with
// 4 shards (the txserved default) and no load shedding. With shedding on,
// what a session analyses depends on timing, so its output could not be
// checked.

const serveShards = 4 // txserved's -shards default

// loopback is a streaming server listening on a loopback port.
type loopback struct {
	ln   net.Listener
	srv  *server.Server
	done chan error // Serve's return value
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{ln: ln, srv: server.New(server.Config{Shards: serveShards, NoShed: true}), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits until Serve has returned.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// stream sends data over a fresh connection and returns the decoded
// response, with spans for dial, write and response under parent.
func (l *loopback) stream(tr *tracer, parent int, data []byte) (*server.Response, error) {
	var c net.Conn
	var err error
	tr.timeSpan("net.dial", parent, func() { c, err = net.Dial("tcp", l.ln.Addr().String()) })
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// A stream takes well under a second; the deadline keeps a stuck
	// session from outliving the benchmark's time limit.
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return nil, err
	}
	tr.timeSpan("net.write", parent, func() { _, err = c.Write(data) })
	if err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	var resp server.Response
	tr.timeSpan("net.response", parent, func() { err = json.NewDecoder(c).Decode(&resp) })
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	return &resp, nil
}

// checkResponse requires a complete, lossless answer and passes its race
// list to check.
func checkResponse(r *server.Response, events uint64, check func([]string) error) error {
	switch {
	case r.Error != "":
		return fmt.Errorf("server error: %s", r.Error)
	case r.Shed != 0:
		return fmt.Errorf("server shed %d events in lossless mode", r.Shed)
	case r.Events != events:
		return fmt.Errorf("server saw %d events, stream has %d", r.Events, events)
	}
	got := make([]string, len(r.Races))
	for i, rc := range r.Races {
		got[i] = rc.Text
	}
	return check(got)
}

// sessionTimes is one in-process session's breakdown.
type sessionTimes struct {
	next, feed, finish time.Duration
	events             uint64
	resp               *server.Response
}

// inProcess drives server.NewSession directly on a wire stream. It decodes
// the stream twice: alone, to time StreamReader.Next, and interleaved with
// Session.Feed as the server's connection handler does it; the difference
// is the feed time.
func inProcess(data []byte) (*sessionTimes, error) {
	next, n, err := decodeAll(data, nil)
	if err != nil {
		return nil, err
	}
	sess := server.NewSession(server.SessionConfig{Shards: serveShards})
	handled, _, err := decodeAll(data, sess.Feed)
	start := time.Now()
	rep := sess.Finish("")
	finish := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &sessionTimes{next: next, feed: handled - next, finish: finish, events: n, resp: server.MakeResponse(rep)}, nil
}

// decodeAll reads every event of a wire stream with trace.StreamReader,
// passing each to feed when it is non-nil, and returns the wall time and the
// event count.
func decodeAll(data []byte, feed func(trace.Event)) (time.Duration, uint64, error) {
	start := time.Now()
	sr, err := trace.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	var n uint64
	for {
		e, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return time.Since(start), n, nil
		}
		if err != nil {
			return 0, n, err
		}
		n++
		if feed != nil {
			feed(e)
		}
	}
}
