package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/safeio"
)

// Backend selectors for Config.Backend, re-exported from the engine (which
// owns backend compilation since the generation refactor).
const (
	BackendFloat     = engine.BackendFloat
	BackendQuantized = engine.BackendQuantized
)

// helloTimeout bounds how long a fresh connection may sit silent before its
// hello: a port scanner or wedged client can't pin a reader goroutine forever.
const helloTimeout = 5 * time.Second

// lingerTimeout bounds the post-FIN discard read that protects a closing
// connection's final frames (stats, drain notice) from an RST clobbering
// them: the writer half-closes, then consumes the client's in-flight tail
// until its FIN or this deadline. A vanished client costs one timeout, not
// a hang.
const lingerTimeout = time.Second

// outQueueDepth is the per-connection outbound frame queue. The writer drains
// it continuously (discarding after a write error), so the depth only smooths
// bursts; it never becomes unbounded buffering.
const outQueueDepth = 256

// Config parameterizes a Server. The zero value is unusable; DefaultConfig
// supplies the serving defaults.
type Config struct {
	// Addr is the TCP listen address for the binary framing protocol.
	Addr string
	// HTTPAddr, when non-empty, serves the localhost HTTP/JSON fallback:
	// /metrics, /score, /healthz and /debug/pprof.
	HTTPAddr string
	// MaxBatch caps a scoring micro-batch. A shard never waits for its
	// batch to fill: it scores whatever is queued as soon as it is free, so
	// batches fill only from the backlog that queues while it scores.
	MaxBatch int
	// QueueBound caps each shard's ingest queue — the admission-control
	// bound. Samples arriving with the queue full are rejected with
	// RejectOverload, never buffered.
	QueueBound int
	// Shards is the number of scoring lanes. Connections are pinned to
	// shards round-robin, so per-connection sample order is preserved.
	Shards int
	// SecureWindow is the post-flag mitigation window in committed
	// instructions, mirroring defense.Controller.
	SecureWindow uint64
	// WriteTimeout bounds each frame write to a client.
	WriteTimeout time.Duration
	// IdleTimeout bounds the silence between any two frames from a client
	// (not just before the hello): a silent-dead client is reaped instead of
	// pinning a reader goroutine and shard slot forever. Clients that want
	// long-lived idle connections keep them alive with ping frames. <= 0
	// disables the idle deadline (the hello deadline always applies).
	IdleTimeout time.Duration
	// SessionWindow is the per-session dedup ring size in sequence numbers:
	// how far behind the highest admitted seq a replayed sample can be and
	// still be deduplicated / re-answered. Replays older than the window are
	// rejected with RejectStale.
	SessionWindow int
	// SessionIdle is how long an orphaned session (no attached conn) is kept
	// resumable before being reaped. <= 0 keeps orphans forever.
	SessionIdle time.Duration
	// StatsPath, when non-empty, receives the final metrics snapshot
	// (crash-safe JSON) when the server drains.
	StatsPath string
	// Backend selects the scoring kernel: BackendFloat (default,
	// bit-identical to offline scoring) or BackendQuantized (int8 hardware
	// arithmetic, fastest, verdict-agreement gated).
	Backend string
	// ShardID identifies this server within a fleet. It is stamped on every
	// metrics snapshot and per-connection stats frame so aggregated stats
	// keep their provenance (which shard, which generation) instead of
	// collapsing into per-process anonymity. Standalone servers leave it 0.
	ShardID int

	// flushPause, when non-nil, runs at the top of every shard flush. Test
	// hook: lets a test hold the batcher still while it floods the ingest
	// queue to observe admission control deterministically.
	flushPause func()
}

// DefaultConfig returns the serving defaults: loopback listener on an
// ephemeral port, batches of at most 32 samples that never wait to fill, and
// a 1024-deep admission queue per shard.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:0",
		MaxBatch:      32,
		QueueBound:    1024,
		Shards:        1,
		SecureWindow:  1_000_000,
		WriteTimeout:  10 * time.Second,
		IdleTimeout:   2 * time.Minute,
		SessionWindow: 1024,
		SessionIdle:   5 * time.Minute,
	}
}

// Server is the online detection service. Construct with New, start with
// Start, stop with Drain (which flushes every accepted sample before
// returning).
type Server struct {
	cfg    Config
	rawDim int
	met    *Metrics

	// mgr drives the live-vaccination loop (canary gate, staging, rollback);
	// sw is its swapper, the atomic active/fallback generation pair every
	// scoring consumer resolves from per batch.
	mgr *engine.Manager
	sw  *engine.Swapper

	shards []*shard
	// rowFree and frameFree are typed freelists (bounded channels) for
	// counter rows and verdict frame buffers. sync.Pool would box every
	// []float64/[]byte into an interface on Put — one heap allocation per
	// scored sample — so the hot path recycles through channels instead:
	// non-blocking get-else-make, put-else-drop.
	rowFree   chan []float64
	frameFree chan []byte

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	// httpSc serializes the stateless HTTP /score fallback; like the shards
	// it re-resolves from the swapper when a new generation goes live.
	httpMu  sync.Mutex
	httpGen *engine.Generation
	httpSc  *engine.Scorer

	mu       sync.Mutex
	conns    map[uint64]*conn
	nextConn uint64
	sessions map[uint64]*session
	nextSess uint64 // session ids start at 1; 0 in a resume frame means "create"
	draining bool
	drained  chan struct{} // closed when Drain completes

	// readerWg counts the accept loop plus every connection reader; the
	// accept loop's own count keeps it nonzero while new readers register,
	// so Drain's Wait cannot race an Add.
	readerWg sync.WaitGroup
	connWg   sync.WaitGroup // connection writers
	shardWg  sync.WaitGroup // shard batchers
}

// New builds a Server scoring with det, normalizing with ds, over rawDim raw
// counters: the in-memory form, wrapping the pair into a single generation
// behind an ungated, persistence-less manager. Servers that hot-swap
// construct the manager themselves and use NewFromManager.
func New(det *detect.Detector, ds *dataset.Dataset, rawDim int, cfg Config) (*Server, error) {
	g, err := engine.New(det, ds, cfg.Backend)
	if err != nil {
		return nil, err
	}
	if g.RawDim() != rawDim {
		return nil, fmt.Errorf("serve: generation scores %d raw counters, server configured for %d",
			g.RawDim(), rawDim)
	}
	mgr, err := engine.NewManager(g, engine.ManagerConfig{Backend: cfg.Backend})
	if err != nil {
		return nil, err
	}
	return NewFromManager(mgr, cfg)
}

// NewFromManager builds a Server serving the manager's active generation,
// with the manager wired to the admin swap/rollback frames. Each shard and
// the HTTP fallback resolve a private scorer from the swapper per batch, so
// a promoted generation takes effect on the very next flush.
func NewFromManager(mgr *engine.Manager, cfg Config) (*Server, error) {
	if cfg.MaxBatch <= 0 {
		return nil, fmt.Errorf("serve: MaxBatch must be positive, got %d", cfg.MaxBatch)
	}
	if cfg.QueueBound <= 0 {
		return nil, fmt.Errorf("serve: QueueBound must be positive, got %d", cfg.QueueBound)
	}
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("serve: Shards must be positive, got %d", cfg.Shards)
	}
	if cfg.SessionWindow <= 0 {
		// Configs predating sessions leave this zero; give them the default
		// rather than failing, since the field only matters to resume users.
		cfg.SessionWindow = DefaultConfig().SessionWindow
	}
	rawDim := mgr.Active().RawDim()
	if rawDim <= 0 {
		return nil, fmt.Errorf("serve: rawDim must be positive, got %d", rawDim)
	}
	srv := &Server{
		cfg:      cfg,
		rawDim:   rawDim,
		met:      newMetrics(cfg.MaxBatch),
		mgr:      mgr,
		sw:       mgr.Swapper(),
		conns:    make(map[uint64]*conn),
		sessions: make(map[uint64]*session),
		nextSess: 1,
		drained:  make(chan struct{}),
	}
	// Capacity covers every row that can be in flight at once (each shard's
	// queue plus its draining batch); beyond that, puts drop to the GC.
	srv.rowFree = make(chan []float64, cfg.Shards*(cfg.QueueBound+cfg.MaxBatch))
	srv.frameFree = make(chan []byte, frameFreeDepth)
	for i := 0; i < cfg.Shards; i++ {
		srv.shards = append(srv.shards, &shard{
			srv:      srv,
			ch:       make(chan request, cfg.QueueBound),
			rawBuf:   make([]float64, cfg.MaxBatch*rawDim),
			instrBuf: make([]uint64, cfg.MaxBatch),
			cycBuf:   make([]uint64, cfg.MaxBatch),
			scoreBuf: make([]float64, cfg.MaxBatch),
		})
	}
	return srv, nil
}

// Manager exposes the live-vaccination manager driving this server.
func (s *Server) Manager() *engine.Manager { return s.mgr }

// getRow leases a rawDim-wide row from the freelist. Rows are fully
// overwritten before use, so reuse order never reaches a score.
func (s *Server) getRow() []float64 {
	select {
	case row := <-s.rowFree:
		return row
	default:
		return make([]float64, s.rawDim)
	}
}

// putRow returns a leased row. Called from the shard batcher after scoring;
// a full freelist drops the row to the GC, so the send never blocks.
func (s *Server) putRow(row []float64) {
	if row == nil {
		return
	}
	select {
	case s.rowFree <- row:
	default:
	}
}

// getFrame leases a verdict-sized frame buffer (length 0). The batcher
// encodes into it and the connection writer recycles it after the socket
// write, so steady-state verdict delivery allocates nothing.
func (s *Server) getFrame() []byte {
	select {
	case b := <-s.frameFree:
		return b[:0]
	default:
		//evaxlint:ignore hotpath cold-start frame buffer; steady state recycles through the freelist
		return make([]byte, 0, verdictFrameLen)
	}
}

// putFrame recycles a written frame buffer. Undersized buffers (none today)
// and overflow beyond the freelist bound drop to the GC.
func (s *Server) putFrame(b []byte) {
	if cap(b) < verdictFrameLen {
		return
	}
	select {
	case s.frameFree <- b:
	default:
	}
}

// Start begins listening and serving. It returns once the listeners are
// bound; serving continues until Drain.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			//evaxlint:ignore droppederr the frame listener is being abandoned; the bind error is the failure reported
			ln.Close()
			return fmt.Errorf("serve: listen http %s: %w", s.cfg.HTTPAddr, err)
		}
		s.httpLn = httpLn
		s.httpSrv = &http.Server{Handler: s.httpMux()}
		go func() {
			//evaxlint:ignore droppederr http.ErrServerClosed is the normal shutdown result
			s.httpSrv.Serve(httpLn)
		}()
	}
	for _, sh := range s.shards {
		s.shardWg.Add(1)
		go sh.run()
	}
	s.readerWg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound framing-protocol address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the bound HTTP fallback address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Metrics exposes the server's live counters.
func (s *Server) Metrics() *Metrics { return s.met }

// Snapshot captures the current metrics with shard and generation provenance
// stamped — the same shape /metrics serves and Drain returns. Fleet
// coordinators poll it to publish per-shard stats frames.
func (s *Server) Snapshot() Snapshot { return s.snapshot() }

// snapshot captures the metrics and stamps generation provenance on top:
// which bundle (content hash) is serving, under which activation epoch and
// backend — so /metrics and the drain report always say what scored.
func (s *Server) snapshot() Snapshot {
	snap := s.met.Snapshot()
	g := s.sw.Active()
	snap.Shard = s.cfg.ShardID
	snap.BundleHash = g.HashHex()
	snap.Epoch = s.sw.Epoch()
	snap.Backend = g.Backend()
	return snap
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.readerWg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.register(nc) {
			//evaxlint:ignore droppederr refusing a connection during drain; nothing to report
			nc.Close()
		}
	}
}

// register wires a new connection: pin to a shard, spawn reader and writer.
// Returns false (and spawns nothing) when the server is draining.
func (s *Server) register(nc net.Conn) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	id := s.nextConn
	s.nextConn++
	c := &conn{
		id:    id,
		srv:   s,
		nc:    nc,
		shard: s.shards[id%uint64(len(s.shards))],
		out:   make(chan []byte, outQueueDepth),
	}
	s.conns[id] = c
	s.readerWg.Add(1)
	s.connWg.Add(1)
	s.mu.Unlock()
	s.met.connsTotal.Add(1)
	s.met.connsActive.Add(1)
	go c.readLoop()
	go c.writeLoop()
	return true
}

// unregister drops a connection from the live set.
func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c.id)
	s.mu.Unlock()
	s.met.connsActive.Add(-1)
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: stop accepting, force every connection
// reader off its socket, flush all in-flight batches so every accepted sample
// has its verdict delivered, then persist the final metrics snapshot. Every
// sample accepted before Drain is answered; none are lost. Safe to call once;
// later calls wait for the first and return the same snapshot.
func (s *Server) Drain() (Snapshot, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drained
		return s.snapshot(), nil
	}
	s.draining = true
	//evaxlint:ignore droppederr closing the accept listener during drain; accept exits either way
	s.ln.Close()
	past := time.Now().Add(-time.Second)
	for _, c := range s.conns {
		// Kick readers off blocking reads; their next ReadFrame errors and
		// the connection tears down through the normal flush barrier.
		//evaxlint:ignore droppederr a failed deadline set only delays this conn's teardown until its next read returns
		c.nc.SetReadDeadline(past)
	}
	s.mu.Unlock()

	// Readers finish (each one's teardown flushes its shard, so every
	// accepted sample's verdict is already queued outbound), then shards,
	// then writers.
	s.readerWg.Wait()
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.shardWg.Wait()
	s.connWg.Wait()

	if s.httpSrv != nil {
		//evaxlint:ignore droppederr drain is complete; an http close error has nothing left to affect
		s.httpSrv.Close()
	}

	snap := s.snapshot()
	var err error
	if s.cfg.StatsPath != "" {
		var data []byte
		data, err = json.MarshalIndent(snap, "", "  ")
		if err == nil {
			data = append(data, '\n')
			err = safeio.WriteFile(s.cfg.StatsPath, data, 0o644)
		}
	}
	close(s.drained)
	return snap, err
}

// Run serves until ctx is cancelled, then drains. It is the programmatic form
// of evaxd's SIGTERM handling.
func (s *Server) Run(ctx context.Context) (Snapshot, error) {
	if err := s.Start(); err != nil {
		return Snapshot{}, err
	}
	<-ctx.Done()
	snap, err := s.Drain()
	if err != nil {
		return snap, err
	}
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return snap, cause
	}
	return snap, nil
}

// httpMux builds the localhost HTTP/JSON fallback: observability endpoints
// plus a stateless single-sample scoring route.
func (s *Server) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//evaxlint:ignore droppederr an interrupted metrics response has no server-side effect
		enc.Encode(s.snapshot())
	})
	mux.HandleFunc("/score", s.handleScore)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// scoreRequest is the /score request body.
type scoreRequest struct {
	Raw          []float64 `json:"raw"`
	Instructions uint64    `json:"instructions"`
	Cycles       uint64    `json:"cycles"`
}

// scoreResponse is the /score response body.
type scoreResponse struct {
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Flagged   bool    `json:"flagged"`
}

// handleScore scores one sample over HTTP/JSON: the stateless fallback for
// clients that can't speak the framing protocol. No flag-window state is
// kept; use the binary protocol for windowed serving.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req scoreRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxPayload)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Raw) != s.rawDim {
		http.Error(w, fmt.Sprintf("raw has %d counters, server catalog has %d", len(req.Raw), s.rawDim),
			http.StatusBadRequest)
		return
	}
	s.httpMu.Lock()
	if g := s.sw.Active(); g != s.httpGen {
		s.httpSc = g.NewScorer()
		s.httpGen = g
	}
	score := s.httpSc.Score(req.Raw, req.Instructions, req.Cycles)
	thr := s.httpSc.Threshold()
	s.httpMu.Unlock()
	s.met.scored.Add(1)
	w.Header().Set("Content-Type", "application/json")
	//evaxlint:ignore droppederr an interrupted score response has no server-side effect
	json.NewEncoder(w).Encode(scoreResponse{Score: score, Threshold: thr, Flagged: score >= thr})
}
