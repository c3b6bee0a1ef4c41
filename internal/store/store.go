// Package store is locsched's crash-safe persistent result store: a
// disk-backed, content-keyed byte store that lets the serving daemon
// warm-start after a restart or crash instead of recomputing its entire
// content-addressed result set.
//
// Layout: a store directory holds append-only segment files
// (seg-00000001.log, seg-00000002.log, ...). Each record is a fixed
// header — magic, key length, body length, a CRC over the header itself,
// and a CRC over key‖body — followed by the key and body bytes. The
// index (key → segment/offset) lives in memory and is rebuilt at Open by
// scanning the segments, which makes recovery correct by construction:
// only records that were fully written and still checksum clean are
// indexed, a torn tail is truncated, and a record with a payload CRC
// mismatch (bit flip) is skipped and counted as quarantined. Every read
// re-verifies both CRCs, so a record that rots after indexing is
// quarantined at read time and reported as a miss — corrupted bytes are
// never served; the caller recomputes and rewrites.
//
// Robustness: all I/O goes through an injectable filesystem/clock seam
// (FS, Clock; FaultFS is the chaos-test implementation) with bounded
// retries, exponential backoff, and per-operation timeouts. A failed or
// timed-out append abandons the possibly-torn segment tail and rotates
// to a fresh segment before retrying, so stragglers can never land
// garbage between indexed records. Persistent post-retry failure trips a
// circuit breaker: the store degrades to memory-only behaviour (reads
// miss, writes drop) instead of stalling requests, and probes the disk
// again half-open after a cooldown.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locsched/internal/obs"
)

// Record format constants.
const (
	// recordMagic begins every record ("LSR1").
	recordMagic = 0x4c535231
	// headerSize is the fixed record header length: magic, key length,
	// body length, header CRC, payload CRC — five uint32s.
	headerSize = 20
	// maxKeyLen bounds record keys (sanity bound for scan validation).
	maxKeyLen = 1 << 16
	// maxBodyLen bounds record bodies (sanity bound for scan validation).
	maxBodyLen = 1 << 30
)

// crcTable is the Castagnoli table used for both record CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrDegraded is returned by Put while the circuit breaker holds the
// store in memory-only mode; the write is dropped, not queued.
var ErrDegraded = errors.New("store: degraded (circuit breaker open)")

// ErrTimeout is the per-operation timeout failure; the abandoned
// operation may still complete in the background, which is why the
// append path rotates segments instead of retrying in place.
var ErrTimeout = errors.New("store: operation timed out")

// errTooLarge rejects keys or bodies beyond the format's sanity bounds.
var errTooLarge = errors.New("store: key or body exceeds record limits")

// Options tunes a Store; the zero value selects production defaults
// (real filesystem and clock, 64 MiB segments, 256 MiB total budget,
// 2 retries at 10 ms exponential backoff, 2 s per-op timeout, breaker
// tripping after 4 consecutive failures with a 5 s cooldown, synced
// appends).
type Options struct {
	// FS is the filesystem seam (nil = OSFS).
	FS FS
	// Clock is the time seam for backoff and timeouts (nil = RealClock).
	Clock Clock
	// MaxSegmentBytes rotates the active segment when it would grow past
	// this size (<= 0 = 64 MiB).
	MaxSegmentBytes int64
	// MaxBytes bounds total on-disk bytes; oldest whole segments are
	// evicted past it (<= 0 = 256 MiB).
	MaxBytes int64
	// MaxRetries is the number of re-attempts after a failed I/O
	// operation (<= 0 = 2).
	MaxRetries int
	// RetryBase is the first backoff delay, doubled per attempt
	// (<= 0 = 10 ms).
	RetryBase time.Duration
	// OpTimeout bounds each disk operation attempt; 0 = 2 s, negative
	// disables the timeout.
	OpTimeout time.Duration
	// BreakerThreshold is the consecutive post-retry failure count that
	// trips the breaker (<= 0 = 4).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before probing
	// half-open (<= 0 = 5 s).
	BreakerCooldown time.Duration
	// NoSync skips the fsync after each append (faster, but a crash can
	// lose recently acknowledged writes; recovery stays exact either way).
	NoSync bool
	// Metrics, when non-nil, registers the store's observability series
	// (op latency histograms, breaker state gauge, quarantine and
	// lost-bytes counters) on the given registry under the
	// locsched_store_* names.
	Metrics *obs.Registry
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Clock == nil {
		o.Clock = RealClock{}
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 4
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// entryRef locates one indexed record on disk, carrying the entry's
// measured reconstruction cost (compute nanoseconds) for cost-aware
// eviction. Cost is metadata, not part of the durable record format: it
// is supplied by PutCost, persisted advisorily in the cache manifest,
// and defaults to zero for entries recovered without one.
type entryRef struct {
	seg     int
	off     int64
	keyLen  int
	bodyLen int
	cost    int64
}

// counts holds the store's atomic operation counters.
type counts struct {
	hits          atomic.Int64
	misses        atomic.Int64
	writes        atomic.Int64
	writeErrors   atomic.Int64
	droppedWrites atomic.Int64
	readErrors    atomic.Int64
	quarantined   atomic.Int64
	retries       atomic.Int64
	opTimeouts    atomic.Int64
	evicted       atomic.Int64
}

// Stats is a point-in-time snapshot of a store's gauges and counters,
// served by locschedd's /statsz. Each numeric field's tag declares the
// /metricsz series that publishes it (RegisterMetrics).
type Stats struct {
	// Entries is the current indexed entry count.
	Entries int `json:"entries" metric:"locsched_store_entries" help:"Currently indexed entry count."`
	// Segments is the current segment file count.
	Segments int `json:"segments" metric:"locsched_store_segments" help:"Current segment file count."`
	// DiskBytes is the total indexed segment byte size.
	DiskBytes int64 `json:"disk_bytes" metric:"locsched_store_disk_bytes" help:"Total indexed segment bytes on disk."`
	// Recovered is the entry count rebuilt from disk at Open.
	Recovered int `json:"recovered_entries" metric:"locsched_store_recovered_entries" help:"Entries rebuilt from disk at Open."`
	// LostBytes counts segment tail bytes discarded at Open (torn writes
	// or unscannable regions after a corrupted header).
	LostBytes int64 `json:"lost_bytes" metric:"locsched_store_lost_bytes_total" help:"Segment tail bytes discarded during crash recovery at Open."`
	// Hits counts reads served with verified bytes.
	Hits int64 `json:"hits" metric:"locsched_store_hits_total" help:"Reads served with verified bytes."`
	// Misses counts reads with no (servable) entry.
	Misses int64 `json:"misses" metric:"locsched_store_misses_total" help:"Reads with no servable entry."`
	// Writes counts successfully appended records.
	Writes int64 `json:"writes" metric:"locsched_store_writes_total" help:"Successfully appended records."`
	// WriteErrors counts appends that failed after all retries.
	WriteErrors int64 `json:"write_errors" metric:"locsched_store_write_errors_total" help:"Appends that failed after all retries."`
	// DroppedWrites counts writes skipped while the breaker was open.
	DroppedWrites int64 `json:"dropped_writes" metric:"locsched_store_dropped_writes_total" help:"Writes skipped while the circuit breaker was open."`
	// ReadErrors counts reads that failed after all retries.
	ReadErrors int64 `json:"read_errors" metric:"locsched_store_read_errors_total" help:"Reads that failed after all retries."`
	// Quarantined counts entries removed because their bytes were
	// corrupt or unreadable (at Open scan or at read time).
	Quarantined int64 `json:"quarantined" metric:"locsched_store_quarantined_total" help:"Entries dropped because their bytes were corrupt or unreadable."`
	// Retries counts re-attempted I/O operations.
	Retries int64 `json:"retries" metric:"locsched_store_retries_total" help:"Re-attempted I/O operations."`
	// OpTimeouts counts operation attempts abandoned at the per-op
	// timeout.
	OpTimeouts int64 `json:"op_timeouts" metric:"locsched_store_op_timeouts_total" help:"Operation attempts abandoned at the per-operation timeout."`
	// EvictedSegments counts whole segments evicted by the byte budget.
	EvictedSegments int64 `json:"evicted_segments" metric:"locsched_store_evicted_segments_total" help:"Whole segments evicted by the byte budget."`
	// Breaker is the circuit breaker state: closed, open, or half-open.
	Breaker string `json:"breaker"`
	// BreakerTrips counts closed/half-open → open transitions.
	BreakerTrips int64 `json:"breaker_trips" metric:"locsched_store_breaker_trips_total" help:"Circuit breaker transitions into the open state."`
}

// Store is the disk-backed content-keyed result store. A Store assumes
// a single writing process per directory (locschedd opens one store);
// within the process all methods are safe for concurrent use.
type Store struct {
	dir   string
	opts  Options
	fs    FS
	clock Clock
	brk   *breaker

	mu       sync.Mutex // guards index, segIDs, segBytes, segCost, total
	index    map[string]entryRef
	segIDs   []int // ascending; last is the active segment
	segBytes map[int]int64
	segCost  map[int]int64 // summed entry costs per segment (eviction ranking)
	total    int64

	wmu        sync.Mutex // serializes the append path
	active     File       // nil: next Put rotates first
	activeID   int
	activeSize int64

	closed    atomic.Bool
	recovered int
	lostBytes int64
	c         counts

	// getHist/putHist time Get/Put operations once the store's series are
	// registered; nil otherwise (observeOp is nil-safe).
	getHist *obs.Histogram
	putHist *obs.Histogram
}

// Open opens (or creates) the store rooted at dir, rebuilding the index
// by scanning every segment: fully written, checksum-clean records are
// indexed (later duplicates of a key win), a torn tail is truncated off
// the active segment, and corrupt records are skipped and counted as
// quarantined. An Open error means the directory is unusable; callers
// should degrade to memory-only operation.
func Open(dir string, opts Options) (*Store, error) {
	o := opts.withDefaults()
	s := &Store{
		dir:      dir,
		opts:     o,
		fs:       o.FS,
		clock:    o.Clock,
		brk:      newBreaker(o.BreakerThreshold, o.BreakerCooldown, o.Clock),
		index:    make(map[string]entryRef),
		segBytes: make(map[int]int64),
		segCost:  make(map[int]int64),
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var ids []int
	for _, e := range ents {
		if id, ok := parseSegName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		validEnd, size, err := s.scanSegment(id)
		if err != nil {
			return nil, fmt.Errorf("store: recovering segment %d: %w", id, err)
		}
		s.segIDs = append(s.segIDs, id)
		last := i == len(ids)-1
		if last {
			// The active segment continues from the last valid record;
			// the torn tail (if any) is truncated so new appends extend
			// a clean prefix.
			f, err := s.fs.OpenFile(s.segPath(id), os.O_RDWR|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("store: reopening active segment %d: %w", id, err)
			}
			if validEnd < size {
				if err := f.Truncate(validEnd); err != nil {
					f.Close()
					return nil, fmt.Errorf("store: truncating torn tail of segment %d: %w", id, err)
				}
			}
			s.active, s.activeID, s.activeSize = f, id, validEnd
			s.segBytes[id] = validEnd
			s.total += validEnd
		} else {
			// Older segments keep any dead tail bytes on disk; only the
			// scanned (indexed) prefix counts toward the budget (the
			// lost tail was already counted by scanSegment).
			s.segBytes[id] = validEnd
			s.total += validEnd
		}
	}
	if len(ids) == 0 {
		// Create the first segment eagerly so an unwritable directory
		// fails Open instead of the first Put.
		if err := s.rotate(); err != nil {
			return nil, fmt.Errorf("store: creating first segment: %w", err)
		}
	}
	s.loadManifestCosts()
	s.recovered = len(s.index)
	s.RegisterMetrics(o.Metrics)
	return s, nil
}

// RegisterMetrics publishes the store's observability series on r; Open
// calls it with Options.Metrics, and a daemon handed a store calls it
// with its own registry. It does nothing for a nil r (no instrumentation
// — the standalone/test path). The sampled series — Stats' tagged fields
// (obs.Publish) and the breaker state — go on every registry it is
// given; the operation timers live on the first one only, because they
// are installed once. Call it before the store is shared between
// goroutines: the first call installs those timers.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	if s.getHist == nil {
		s.getHist = r.Histogram("locsched_store_get_seconds",
			"Persistent-store read latency (verified hit or miss).", nil)
		s.putHist = r.Histogram("locsched_store_put_seconds",
			"Persistent-store append latency (durable write, all retries).", nil)
	}
	r.GaugeFunc("locsched_store_breaker_state",
		"Circuit breaker state: 0 closed, 1 half-open, 2 open.", func() float64 {
			state, _ := s.brk.snapshot()
			switch state {
			case BreakerHalfOpen:
				return 1
			case BreakerOpen:
				return 2
			}
			return 0
		})
	obs.Publish(r, s.Stats)
}

// observeOp records one operation latency on h; nil h (metrics disabled)
// is a no-op.
func observeOp(h *obs.Histogram, start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// loadManifestCosts seeds recovered entries with the reconstruction
// costs persisted in the cache manifest, best-effort: a missing,
// truncated, or corrupt manifest only costs eviction precision (costless
// entries rank cheapest and are evicted first), never correctness — the
// segments themselves stay the single source of truth for bytes.
func (s *Store) loadManifestCosts() {
	entries, err := LoadManifest(s.fs, s.ManifestPath())
	if err != nil {
		return
	}
	for _, e := range entries {
		ref, ok := s.index[e.Key]
		if !ok || int64(ref.bodyLen) != e.Size || e.CostNanos <= 0 {
			continue
		}
		ref.cost = e.CostNanos
		s.index[e.Key] = ref
		s.segCost[ref.seg] += e.CostNanos
	}
}

// segPath returns the path of segment id.
func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", id))
}

// parseSegName extracts a segment id from a file name.
func parseSegName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id <= 0 {
		return 0, false
	}
	return id, true
}

// scanSegment rebuilds index entries from one segment, returning the
// end offset of the last valid record and the file's total size. The
// scan stops at the first invalid header (a torn append, or corruption
// that makes record lengths untrustworthy); a record whose header is
// intact but whose payload CRC fails is skipped precisely and counted
// as quarantined.
func (s *Store) scanSegment(id int) (validEnd, size int64, err error) {
	f, err := s.fs.OpenFile(s.segPath(id), os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return 0, 0, err
	}
	size = int64(len(data))
	off := 0
	for off+headerSize <= len(data) {
		keyLen, bodyLen, ok := parseHeader(data[off:])
		if !ok {
			break
		}
		end := off + headerSize + keyLen + bodyLen
		if end > len(data) {
			break
		}
		rec := data[off:end]
		if crc32.Checksum(rec[headerSize:], crcTable) != binary.LittleEndian.Uint32(rec[16:20]) {
			s.c.quarantined.Add(1)
			off = end
			continue
		}
		key := string(rec[headerSize : headerSize+keyLen])
		s.index[key] = entryRef{seg: id, off: int64(off), keyLen: keyLen, bodyLen: bodyLen}
		off = end
	}
	s.lostBytes += size - int64(off)
	return int64(off), size, nil
}

// parseHeader validates a record header in place, returning the key and
// body lengths. ok is false when the magic, the header CRC, or the
// length sanity bounds fail — i.e. when the lengths cannot be trusted.
func parseHeader(b []byte) (keyLen, bodyLen int, ok bool) {
	if binary.LittleEndian.Uint32(b[0:4]) != recordMagic {
		return 0, 0, false
	}
	if crc32.Checksum(b[0:12], crcTable) != binary.LittleEndian.Uint32(b[12:16]) {
		return 0, 0, false
	}
	kl := int(binary.LittleEndian.Uint32(b[4:8]))
	bl := int(binary.LittleEndian.Uint32(b[8:12]))
	if kl <= 0 || kl > maxKeyLen || bl < 0 || bl > maxBodyLen {
		return 0, 0, false
	}
	return kl, bl, true
}

// encodeRecord renders one record: header (magic, lengths, header CRC,
// payload CRC) then key then body.
func encodeRecord(key string, body []byte) []byte {
	rec := make([]byte, headerSize+len(key)+len(body))
	binary.LittleEndian.PutUint32(rec[0:4], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[12:16], crc32.Checksum(rec[0:12], crcTable))
	copy(rec[headerSize:], key)
	copy(rec[headerSize+len(key):], body)
	binary.LittleEndian.PutUint32(rec[16:20], crc32.Checksum(rec[headerSize:], crcTable))
	return rec
}

// timed runs one operation attempt under the per-op timeout. A timed-out
// attempt is abandoned (its goroutine may still finish in the
// background), which is why the append path never retries into the same
// segment.
func (s *Store) timed(f func() error) error {
	if s.opts.OpTimeout < 0 {
		return f()
	}
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-s.clock.After(s.opts.OpTimeout):
		s.c.opTimeouts.Add(1)
		return ErrTimeout
	}
}

// Get returns the stored body for key with both CRCs re-verified. A
// missing, corrupt, unreadable, or breaker-degraded entry reports a
// miss; corrupt or unreadable entries are additionally quarantined
// (dropped from the index) so the caller's recompute can rewrite them.
func (s *Store) Get(key string) ([]byte, bool) {
	body, _, ok := s.GetWithCost(key)
	return body, ok
}

// GetWithCost is Get plus the entry's recorded reconstruction cost in
// compute nanoseconds (zero when none was recorded), so a caller
// promoting the bytes into a higher cache tier can keep ranking them by
// cost-per-byte there.
func (s *Store) GetWithCost(key string) ([]byte, int64, bool) {
	if s.closed.Load() {
		return nil, 0, false
	}
	defer observeOp(s.getHist, time.Now())
	s.mu.Lock()
	ref, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		s.c.misses.Add(1)
		return nil, 0, false
	}
	if !s.brk.allow() {
		s.c.misses.Add(1)
		return nil, 0, false
	}
	buf, err := s.readRecord(ref)
	if err != nil {
		s.brk.failure()
		s.c.readErrors.Add(1)
		s.c.misses.Add(1)
		s.quarantine(key, ref)
		return nil, 0, false
	}
	s.brk.success()
	body, ok := verifyRecord(buf, key, ref)
	if !ok {
		s.c.misses.Add(1)
		s.quarantine(key, ref)
		return nil, 0, false
	}
	s.c.hits.Add(1)
	return body, ref.cost, true
}

// readRecord reads one full record with retry, backoff, and the per-op
// timeout.
func (s *Store) readRecord(ref entryRef) ([]byte, error) {
	path := s.segPath(ref.seg)
	buf := make([]byte, headerSize+ref.keyLen+ref.bodyLen)
	var err error
	for attempt := 0; attempt <= s.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			s.c.retries.Add(1)
			s.clock.Sleep(s.opts.RetryBase << (attempt - 1))
		}
		err = s.timed(func() error {
			f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.ReadAt(buf, ref.off)
			return err
		})
		if err == nil {
			return buf, nil
		}
	}
	return nil, err
}

// verifyRecord checks a read-back record against its index entry: magic,
// header CRC, lengths, key identity, and payload CRC. Any mismatch means
// the bytes must not be served.
func verifyRecord(buf []byte, key string, ref entryRef) ([]byte, bool) {
	keyLen, bodyLen, ok := parseHeader(buf)
	if !ok || keyLen != ref.keyLen || bodyLen != ref.bodyLen {
		return nil, false
	}
	if crc32.Checksum(buf[headerSize:], crcTable) != binary.LittleEndian.Uint32(buf[16:20]) {
		return nil, false
	}
	if string(buf[headerSize:headerSize+keyLen]) != key {
		return nil, false
	}
	return buf[headerSize+keyLen:], true
}

// quarantine drops an entry whose bytes can no longer be served, unless
// the index has already moved on to a fresh record for the key. The
// entry's cost leaves its segment's eviction ranking with it.
func (s *Store) quarantine(key string, ref entryRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.index[key]; ok && cur == ref {
		delete(s.index, key)
		s.segCost[ref.seg] -= ref.cost
		s.c.quarantined.Add(1)
	}
}

// Put appends key/body durably with no recorded reconstruction cost.
// See PutCost for the append contract.
func (s *Store) Put(key string, body []byte) error {
	return s.PutCost(key, body, 0)
}

// PutCost appends key/body durably, recording the entry's measured
// reconstruction cost (compute nanoseconds) for cost-aware eviction. An
// already-stored key is a no-op (the store is content-addressed: same
// key, same bytes). A failed or timed-out append abandons the active
// segment — isolating any torn tail at a segment end, where recovery
// truncates it — and retries into a fresh segment; persistent failure
// feeds the circuit breaker and drops the write (the store is a cache,
// not a log: the caller keeps serving from memory).
func (s *Store) PutCost(key string, body []byte, costNanos int64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	defer observeOp(s.putHist, time.Now())
	if len(key) == 0 || len(key) > maxKeyLen || len(body) > maxBodyLen {
		return errTooLarge
	}
	if costNanos < 0 {
		costNanos = 0
	}
	s.mu.Lock()
	_, exists := s.index[key]
	s.mu.Unlock()
	if exists {
		return nil
	}
	if !s.brk.allow() {
		s.c.droppedWrites.Add(1)
		return ErrDegraded
	}
	rec := encodeRecord(key, body)

	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		if s.active == nil {
			if err = s.rotate(); err != nil {
				break
			}
		} else if s.activeSize > 0 && s.activeSize+int64(len(rec)) > s.opts.MaxSegmentBytes {
			if err = s.rotate(); err != nil {
				break
			}
		}
		off, seg := s.activeSize, s.activeID
		// Capture the handle: a timed-out attempt keeps running in the
		// background while this path reassigns s.active, and it must
		// keep targeting the abandoned (soon closed) segment.
		f := s.active
		err = s.timed(func() error {
			if _, werr := f.Write(rec); werr != nil {
				return werr
			}
			if !s.opts.NoSync {
				return f.Sync()
			}
			return nil
		})
		if err == nil {
			s.activeSize += int64(len(rec))
			s.brk.success()
			s.c.writes.Add(1)
			s.commit(key, entryRef{seg: seg, off: off, keyLen: len(key), bodyLen: len(body), cost: costNanos}, int64(len(rec)))
			return nil
		}
		// The segment may carry a torn tail now (and a timed-out write
		// may still land later); abandon it so the next attempt — and
		// every future append — starts a clean segment.
		s.active.Close()
		s.active = nil
		if attempt >= s.opts.MaxRetries {
			break
		}
		s.c.retries.Add(1)
		s.clock.Sleep(s.opts.RetryBase << attempt)
	}
	s.brk.failure()
	s.c.writeErrors.Add(1)
	return fmt.Errorf("store: appending %q: %w", key, err)
}

// rotate closes the active segment and starts the next one. Callers
// hold wmu (or are Open, before any concurrency).
func (s *Store) rotate() error {
	if s.active != nil {
		s.active.Close()
		s.active = nil
	}
	id := s.activeID + 1
	f, err := s.fs.OpenFile(s.segPath(id), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	s.activeID, s.activeSize, s.active = id, 0, f
	s.mu.Lock()
	s.segIDs = append(s.segIDs, id)
	s.segBytes[id] = 0
	s.segCost[id] = 0
	s.mu.Unlock()
	return nil
}

// commit indexes a durable record and enforces the byte budget by
// evicting whole segments (never the active one), cheapest first:
// the victim is the segment with the lowest cost-per-byte — summed
// entry reconstruction cost over indexed bytes — so a segment full of
// expensive-to-recompute results (a 1024-core figure) outlives a larger
// one full of cheap cells, regardless of age. Equal densities (notably
// the all-zero-cost case of a store fed only by Put) tie-break oldest
// first, which preserves the previous pure-age behaviour exactly.
func (s *Store) commit(key string, ref entryRef, recLen int64) {
	var evict []int
	s.mu.Lock()
	s.index[key] = ref
	s.segBytes[ref.seg] += recLen
	s.segCost[ref.seg] += ref.cost
	s.total += recLen
	for s.total > s.opts.MaxBytes && len(s.segIDs) > 1 {
		victim := s.cheapestSegmentLocked()
		for k, r := range s.index {
			if r.seg == victim {
				delete(s.index, k)
			}
		}
		s.total -= s.segBytes[victim]
		delete(s.segBytes, victim)
		delete(s.segCost, victim)
		for i, id := range s.segIDs {
			if id == victim {
				s.segIDs = append(s.segIDs[:i], s.segIDs[i+1:]...)
				break
			}
		}
		evict = append(evict, victim)
	}
	s.mu.Unlock()
	for _, id := range evict {
		// Best-effort: a lingering file is re-scanned (and still valid)
		// on the next Open, so a failed remove loses nothing.
		s.fs.Remove(s.segPath(id))
		s.c.evicted.Add(1)
	}
}

// cheapestSegmentLocked returns the non-active segment with the lowest
// cost-per-byte (ties — notably all-zero costs — keep the oldest id).
// Callers hold mu and guarantee at least two segments exist.
func (s *Store) cheapestSegmentLocked() int {
	candidates := s.segIDs[:len(s.segIDs)-1]
	victim, best := candidates[0], segDensity(s.segCost[candidates[0]], s.segBytes[candidates[0]])
	for _, id := range candidates[1:] {
		if d := segDensity(s.segCost[id], s.segBytes[id]); d < best {
			victim, best = id, d
		}
	}
	return victim
}

// segDensity is the eviction-cost formula: summed entry reconstruction
// cost over indexed bytes. An empty segment (abandoned by a failed
// append) ranks cheapest of all — evicting it frees nothing but costs
// nothing either.
func segDensity(cost, bytes int64) float64 {
	if bytes <= 0 {
		return -1
	}
	return float64(cost) / float64(bytes)
}

// ManifestPath returns the path of the store's cache manifest file.
func (s *Store) ManifestPath() string {
	return filepath.Join(s.dir, "manifest.lsm")
}

// SaveManifest persists the cache manifest: one advisory record per
// indexed entry (key, reconstruction cost, body size) plus the opaque
// metadata metaOf yields for the key (nil metaOf, or a nil return,
// writes an empty meta). The manifest seeds eviction costs at the next
// Open and lets bench replay a realistic warm set; it is best-effort
// and single-attempt — a failed save leaves recovery exact, just
// costless — and it never feeds the circuit breaker.
func (s *Store) SaveManifest(metaOf func(key string) []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]ManifestEntry, 0, len(keys))
	for _, k := range keys {
		ref := s.index[k]
		entries = append(entries, ManifestEntry{
			Key:       k,
			CostNanos: ref.cost,
			Size:      int64(ref.bodyLen),
		})
	}
	s.mu.Unlock()
	if metaOf != nil {
		for i := range entries {
			entries[i].Meta = metaOf(entries[i].Key)
		}
	}
	return WriteManifest(s.fs, s.ManifestPath(), entries)
}

// Len returns the current indexed entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's gauges and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, segments, total := len(s.index), len(s.segIDs), s.total
	s.mu.Unlock()
	state, trips := s.brk.snapshot()
	return Stats{
		Entries:         entries,
		Segments:        segments,
		DiskBytes:       total,
		Recovered:       s.recovered,
		LostBytes:       s.lostBytes,
		Hits:            s.c.hits.Load(),
		Misses:          s.c.misses.Load(),
		Writes:          s.c.writes.Load(),
		WriteErrors:     s.c.writeErrors.Load(),
		DroppedWrites:   s.c.droppedWrites.Load(),
		ReadErrors:      s.c.readErrors.Load(),
		Quarantined:     s.c.quarantined.Load(),
		Retries:         s.c.retries.Load(),
		OpTimeouts:      s.c.opTimeouts.Load(),
		EvictedSegments: s.c.evicted.Load(),
		Breaker:         state,
		BreakerTrips:    trips,
	}
}

// Close flushes and closes the active segment. Further Gets miss and
// Puts return ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}
