package server

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/detect"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// SessionConfig tunes one streaming detection session.
type SessionConfig struct {
	// Shards is the address-shard count (>= 1).
	Shards int
	// Workers bounds the detection goroutines (<= Shards is useful; more
	// than Shards idles). 0 means Shards.
	Workers int
	// BatchSize is the number of accesses routed to a shard before its
	// batch is flushed to the worker queue. 0 means DefaultBatchSize.
	BatchSize int
	// QueueBatches is the per-worker queue capacity in batches. 0 means
	// DefaultQueueBatches.
	QueueBatches int
	// Shed enables the overload governor: when a worker queue is full,
	// access batches are dropped (degrading to sampling-mode detection
	// with reported coverage) instead of blocking ingestion. Off, Feed
	// blocks until the worker catches up — lossless, used offline.
	Shed bool

	metrics *serverMetrics
	// workerGate, when set, runs before a worker processes each batch;
	// tests use it to hold workers and force overload deterministically.
	workerGate func(worker int)
}

// Defaults for SessionConfig zero fields.
const (
	DefaultBatchSize    = 256
	DefaultQueueBatches = 16
)

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Workers < 1 || c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.BatchSize < 1 {
		c.BatchSize = DefaultBatchSize
	}
	if c.QueueBatches < 1 {
		c.QueueBatches = DefaultQueueBatches
	}
	return c
}

// shardEvt is one access routed to a shard: the event's payload plus the
// thread-clock snapshot current at routing time and the global event index
// (the merge key that restores sequential first-detection order).
type shardEvt struct {
	vc    *clock.VC
	addr  memmodel.Addr
	idx   uint64
	site  shadow.SiteID
	tid   clock.TID
	write bool
}

// workItem is one batch of routed accesses bound for a shard.
type workItem struct {
	shard   int
	threads int
	batch   []shardEvt
}

// Session is one client's streaming detection run: events arrive in trace
// order through Feed (single-goroutine ingestion, like one connection), the
// sync events drive the sequential happens-before core, and access batches
// fan out to shard workers, each running the FastTrack kernel. Finish
// flushes, joins the workers, and merges per-shard findings into a Report.
//
// With Shed disabled the result is byte-identical to the sequential
// detector; with Shed enabled it degrades to sampling under overload and
// the Report carries the shed count and coverage.
type Session struct {
	cfg      SessionConfig
	clocks   *detect.Clocks
	shards   []*detect.FastTrack
	queues   []chan workItem
	batches  [][]shardEvt
	wg       sync.WaitGroup
	events   uint64
	shed     uint64
	trips    uint64
	shedding bool
	finished bool
	report   *Report
}

// NewSession starts a session's workers and returns it ready for Feed.
func NewSession(cfg SessionConfig) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		cfg: cfg,
		// Epoch-collapsing stays off: a Rebase would mutate clocks the
		// shards still hold as snapshots.
		clocks:  detect.NewClocks(detect.Config{CollapseEvery: -1}),
		shards:  make([]*detect.FastTrack, cfg.Shards),
		queues:  make([]chan workItem, cfg.Workers),
		batches: make([][]shardEvt, cfg.Shards),
	}
	for i := range s.shards {
		s.shards[i] = detect.NewFastTrack()
	}
	for w := range s.queues {
		s.queues[w] = make(chan workItem, cfg.QueueBatches)
		s.wg.Add(1)
		go s.worker(w)
	}
	if m := cfg.metrics; m != nil {
		m.sessions.Add(1)
	}
	return s
}

func (s *Session) worker(w int) {
	defer s.wg.Done()
	m := s.cfg.metrics
	for item := range s.queues[w] {
		if s.cfg.workerGate != nil {
			s.cfg.workerGate(w)
		}
		k := s.shards[item.shard]
		for _, ev := range item.batch {
			k.Access(ev.vc, ev.tid, ev.addr, ev.write, ev.site, item.threads, ev.idx)
		}
		if m != nil {
			m.queueDepth.Add(-1)
			m.analyzed.Add(uint64(len(item.batch)))
		}
	}
}

// Feed ingests one event. It must be called from a single goroutine per
// session (the connection's ingestion goroutine), in trace order.
func (s *Session) Feed(e trace.Event) {
	s.events++
	if m := s.cfg.metrics; m != nil {
		m.events.Inc()
	}
	if e.Kind != trace.KAccess {
		// Sync events are never shed: dropping one would corrupt the
		// happens-before frontier for every later access.
		trace.ApplySync(s.clocks, e)
		return
	}
	sh := shardOf(e.Addr, s.cfg.Shards)
	if s.shedding {
		if s.queuesDrained() {
			s.shedding = false
		} else {
			s.dropAccess(1)
			return
		}
	}
	s.batches[sh] = append(s.batches[sh], shardEvt{
		vc:   s.clocks.Snapshot(clock.TID(e.TID)),
		addr: e.Addr, idx: s.events - 1, site: e.Site,
		tid: clock.TID(e.TID), write: e.Write,
	})
	if len(s.batches[sh]) >= s.cfg.BatchSize {
		s.flush(sh, false)
	}
}

// queuesDrained reports whether every worker queue is back under half
// capacity — the governor's recovery condition.
func (s *Session) queuesDrained() bool {
	for _, q := range s.queues {
		if len(q) > cap(q)/2 {
			return false
		}
	}
	return true
}

func (s *Session) dropAccess(n int) {
	s.shed += uint64(n)
	if m := s.cfg.metrics; m != nil {
		m.shed.Add(uint64(n))
	}
}

// flush hands shard sh's pending batch to its worker. When shedding is
// enabled and the worker queue is full, the batch is dropped and the
// governor trips into sampling mode; blocking flushes (shed disabled, or
// the final drain) wait instead.
func (s *Session) flush(sh int, block bool) {
	b := s.batches[sh]
	if len(b) == 0 {
		return
	}
	item := workItem{shard: sh, threads: s.clocks.NumThreads(), batch: b}
	q := s.queues[sh%s.cfg.Workers]
	m := s.cfg.metrics
	if s.cfg.Shed && !block {
		select {
		case q <- item:
			if m != nil {
				m.queueDepth.Add(1)
			}
		default:
			s.dropAccess(len(b))
			s.shedding = true
			s.trips++
			if m != nil {
				m.trips.Inc()
			}
			s.batches[sh] = b[:0]
			return
		}
	} else {
		q <- item
		if m != nil {
			m.queueDepth.Add(1)
		}
	}
	s.batches[sh] = make([]shardEvt, 0, s.cfg.BatchSize)
}

// Finish flushes every pending batch (blocking — ingestion is over, so
// waiting no longer stalls a client), joins the workers, and merges the
// per-shard findings into the final report.
//
// Finish is idempotent: a second call returns the first call's report (with
// the name it was finished under) instead of tearing down twice. Retrying or
// misbehaving clients can send a duplicate end-of-stream, and a panic here
// would take down the whole server.
func (s *Session) Finish(name string) *Report {
	if s.finished {
		return s.report
	}
	s.finished = true
	for sh := range s.batches {
		s.flush(sh, true)
	}
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	logs := make([]*detect.RaceLog, len(s.shards))
	var checks uint64
	for i, k := range s.shards {
		logs[i] = &k.RaceLog
		checks += k.Checks
	}
	races := detect.MergeLogs(logs)
	if m := s.cfg.metrics; m != nil {
		m.sessions.Add(-1)
		m.races.Add(uint64(len(races)))
	}
	s.report = &Report{
		Name:   name,
		Shards: s.cfg.Shards,
		Events: s.events,
		Checks: checks,
		Shed:   s.shed, GovernorTrips: s.trips,
		races: races,
	}
	return s.report
}

// serverMetrics bundles the obs instruments the server updates; nil-safe
// wrapper construction keeps the hot path branch-cheap.
type serverMetrics struct {
	events   *obs.Counter // server.events: every event ingested
	analyzed *obs.Counter // server.analyzed: accesses actually detected on
	shed     *obs.Counter // server.shed: accesses dropped by the governor
	trips    *obs.Counter // server.governor.trips: overload transitions
	races    *obs.Counter // server.races: distinct races reported
	conns    *obs.Counter // server.conns: connections accepted
	sessions *obs.Gauge   // server.sessions.active

	queueDepth *obs.Gauge // server.queue.depth: batches in flight
	rate       *obs.Gauge // server.events_per_sec: ingest rate, 1s window
}

func newServerMetrics(m *obs.Metrics) *serverMetrics {
	if m == nil {
		return nil
	}
	return &serverMetrics{
		events:     m.Counter("server.events"),
		analyzed:   m.Counter("server.analyzed"),
		shed:       m.Counter("server.shed"),
		trips:      m.Counter("server.governor.trips"),
		races:      m.Counter("server.races"),
		conns:      m.Counter("server.conns"),
		sessions:   m.Gauge("server.sessions.active"),
		queueDepth: m.Gauge("server.queue.depth"),
		rate:       m.Gauge("server.events_per_sec"),
	}
}
