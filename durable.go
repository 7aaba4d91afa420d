package kbt

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kbt/internal/engine"
	"kbt/internal/wal"
)

// defaultCompactAfterBatches bounds the checkpoint chain and the log tail, and
// with them the recovery replay cost: a checkpoint runs once this many ingest
// batches have been applied since the last, and compacts a chain this long.
const defaultCompactAfterBatches = 256

// DurableOptions configures OpenDurable, on top of the EngineOptions that
// configure the model itself.
type DurableOptions struct {
	// CheckpointEvery, when > 0, runs Checkpoint automatically after every
	// N-th successful Refresh. Zero leaves checkpoints to Checkpoint calls,
	// CheckpointBytes and the compaction cadence (every 256 batches).
	CheckpointEvery int
	// CheckpointBytes, when > 0, runs Checkpoint as soon as the log entries
	// written since the last checkpoint (the ones a recovery would replay)
	// reach this many bytes, whatever the segment size — checked after every
	// Refresh and after every Ingest. An ingest-triggered checkpoint
	// refreshes the pending records in first (checkpoints sit on refresh
	// boundaries), so a pure ingest stream still gets bounded log growth.
	CheckpointBytes int64
	// OnHealthChange, when non-nil, is invoked on every health-state
	// transition with the triggering error (nil on a heal). It is called
	// synchronously under the engine's mutator lock: keep it fast and never
	// call back into the engine from it.
	OnHealthChange func(from, to HealthState, cause error)

	// The hooks below are for tests; zero keeps the production value.
	//
	// fs overrides the filesystem; the crash and chaos tests put a
	// wal.FaultFS here, whose schedule fails chosen operations or kills the
	// process at a chosen byte. nil means the real filesystem.
	fs wal.FS
	// now overrides the probe clock. nil means time.Now; the health tests
	// inject a fake clock here.
	now func() time.Time
	// segmentBytes is the WAL segment roll size (zero: 4 MiB).
	segmentBytes int64
	// compactAfterBatches overrides defaultCompactAfterBatches; negative
	// never compacts.
	compactAfterBatches int
	// keyRetention overrides defaultKeyRetention, the number of idempotency
	// keys retained.
	keyRetention int
	// probeBackoff is the initial delay before a degraded engine re-probes
	// the disk (zero: 500ms); each failed probe doubles it, capped at
	// probeMaxBackoff (zero: 30s).
	probeBackoff, probeMaxBackoff time.Duration
}

// clock resolves the probe clock.
func (o DurableOptions) clock() func() time.Time {
	if o.now != nil {
		return o.now
	}
	return time.Now
}

// probeBounds resolves the probe-backoff bounds.
func (o DurableOptions) probeBounds() (initial, max time.Duration) {
	initial, max = o.probeBackoff, o.probeMaxBackoff
	if initial <= 0 {
		initial = 500 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if max < initial {
		max = initial
	}
	return initial, max
}

// ErrEngineClosed is returned by mutating calls on a closed DurableEngine.
var ErrEngineClosed = errors.New("kbt: durable engine is closed")

// ErrReadOnly is returned by mutating calls while the engine is degraded or
// sealed read-only after a storage fault. Reads keep serving the last
// published generation; a degraded engine heals itself once a probe
// append+fsync round-trip succeeds again. Errors returned by the faulting
// call itself and by every subsequent fast-fail both match
// errors.Is(err, ErrReadOnly).
var ErrReadOnly = errors.New("kbt: engine is read-only after a storage fault")

// HealthState is the durable engine's health machine:
//
//	StateHealthy  — appends flow normally.
//	StateDegraded — a WAL append/sync/checkpoint error occurred. The engine
//	                serves reads from the last published generation, fails
//	                mutators fast with ErrReadOnly, repairs the torn tail,
//	                and probes the disk with exponential backoff; one
//	                successful append+fsync round-trip heals it.
//	StateSealed   — unrecoverable (sealed-region corruption): permanently
//	                read-only.
type HealthState int32

const (
	StateHealthy HealthState = iota
	StateDegraded
	StateSealed
)

func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateSealed:
		return "readonly"
	}
	return "unknown"
}

// HealthStatus is a point-in-time health report, served by /v1/healthz and
// /v1/stats.
type HealthStatus struct {
	State HealthState
	// LastFault describes the most recent storage fault ("" if none ever).
	LastFault string
	// Faults counts storage faults observed (including failed probes);
	// Heals counts successful degraded→healthy transitions.
	Faults uint64
	Heals  uint64
	// RetryAfter is how long until the next heal probe may run — the
	// Retry-After a server should hand a client while degraded. Zero when
	// healthy, or when a probe is already due.
	RetryAfter time.Duration
	// WALBytes is the bytes of the log entries written since the last
	// checkpoint, across segment rolls: what a restart replays on top of the
	// checkpoint chain, and what CheckpointBytes compares. A checkpoint
	// resets it; OpenDurable seeds it from the replayed tail.
	// CheckpointWatermark is the log sequence the chain covers up to.
	WALBytes            int64
	CheckpointWatermark uint64
	// LogBytes is the size of the log on disk, over every segment file: the
	// log a checkpoint has not yet truncated, which includes the part of a
	// segment below the watermark until the whole segment is covered.
	LogBytes int64
	// CheckpointAge is the time since this process last completed a
	// checkpoint, on the engine's clock; zero before its first.
	CheckpointAge time.Duration
}

// DurableEngine is an Engine whose ingest stream survives process death: it
// journals in front of the same internal engine Engine drives, and embeds the
// same read view, so it has Engine's method set (and its lock-free read
// path), plus Checkpoint and Close, and the durability contract:
//
//   - Ingest returns nil only after the batch is fsync-ed into the
//     write-ahead log — an acknowledged batch is never lost by a crash;
//   - a batch whose Ingest did not return is cleanly dropped or cleanly
//     kept by recovery, never torn;
//   - OpenDurable on a crashed directory reproduces, bit for bit, the
//     result a process that performed exactly the durable operation prefix
//     would serve. Recovery replays the checkpoint chain and the log tail
//     through the normal Refresh machinery, so the warm incremental paths
//     are exercised, not bypassed.
//
// Refresh appends a marker to the log without forcing its own fsync: the
// marker rides the next sync barrier (group commit), keeping fsync latency
// off the refresh path. A crash can therefore roll an un-synced refresh
// back to "records pending" — but never lose the records themselves.
//
// A Checkpoint is incremental: it appends the operations performed since the
// last checkpoint as a delta to the on-disk chain and truncates the covered
// log segments — O(since-last-checkpoint), and the live engine keeps its
// warm carried-over EM state untouched. An op names its batch as a row range
// of the internal engine's table, the one place a record lives once it is
// acknowledged, and is encoded from those rows. Recovery replays the chain's
// op sequence through the same deterministic warm machinery the live engine
// ran, which is what keeps the bit-identity contract without a cold rebuild.
// Once the chain accumulates defaultCompactAfterBatches ingest ops it is
// compacted: a single base holding every row of the table replaces it, and
// the live engine is rebuilt in place on that image (engine.RefreshCold) —
// a cold recompile of the prefix, the exact state recovery would rebuild —
// which may move the published estimates: a cold run need not settle where
// the warm one did (ARCHITECTURE.md, Known limits).
type DurableEngine struct {
	// view is the live engine and its lock-free read accessors.
	view
	dopt DurableOptions
	dir  string

	mu        sync.Mutex // serialises mutators: Ingest, Refresh, Checkpoint, Close; released by unlock
	log       *wal.Log
	refreshes int   // successful refreshes since the last checkpoint
	logged    int64 // bytes of the log entries past the checkpoint watermark

	// opsSince records the state transitions applied since the last
	// checkpoint — exactly what the next delta must carry, a batch as its
	// rows of the engine's table, which the write attaches. Rejected batches
	// and impossible markers contribute no state and are not recorded;
	// newBatches counts its batch ops.
	opsSince   []wal.CheckpointOp
	newBatches int
	// hasChain / ckWatermark / chainBatches mirror the published chain:
	// whether one exists, the log sequence it covers up to, and how many
	// ingest-batch ops it carries (the compaction cadence input).
	hasChain     bool
	ckWatermark  uint64
	chainBatches int

	// state through nextProbe are the health machine above, guarded by mu.
	// status is what readers see of it: one immutable healthView, replaced
	// by unlock before every mutator releases mu, so Health is one atomic
	// load and never waits behind a refresh, checkpoint or compaction.
	state      HealthState
	faults     uint64
	heals      uint64
	lastFault  error
	probeDelay time.Duration
	nextProbe  time.Time
	status     atomic.Pointer[healthView]
	// lastCkpt is when this process last completed a checkpoint (zero:
	// never), the base of HealthStatus.CheckpointAge.
	lastCkpt time.Time

	// keys is the idempotency-key dedup set: the most recent 64Ki keys
	// (defaultKeyRetention) whose batches were durably applied, live or via
	// recovery replay. A resend of a retained key is acknowledged without
	// re-ingesting; compaction carries the retained set into the rebuilt base
	// so it survives the chain being replaced.
	keys keyring

	closed bool
}

// healthView is a published health report: the status with RetryAfter and
// CheckpointAge left for the reader to derive from nextProbe and lastCkpt on
// the clock, and whether the engine was closed (a closed engine never probes).
type healthView struct {
	HealthStatus
	nextProbe, lastCkpt time.Time
	closed              bool
}

// fingerprintVersion tags the layout of engineFingerprint. Pre-1.0, a data
// directory is readable only by the format version that wrote it: recovery
// refuses a chain carrying any other tag.
const fingerprintVersion = "v4"

// engineFingerprint identifies the model-affecting options a WAL's records
// were estimated under. Replaying the same records under different options
// would not reproduce the same model, so recovery refuses a mismatch.
// Workers and Shards are excluded: parallelism does not change results, and
// the shard count only counts statistics.
func engineFingerprint(o EngineOptions) string {
	return fmt.Sprintf("%s g=%d dom=%d iter=%d minsup=%d minrep=%g conf=%t absence=%t tol=%g copydetect=%t fusion=%t",
		fingerprintVersion, o.Granularity, o.DomainSize, o.Iterations, o.MinSupport,
		o.MinReportableTriples, o.UseConfidence, o.AllExtractorsVoteAbsence,
		o.Tol, o.CopyDetect, o.Fusion)
}

// checkFingerprint refuses a chain written under another fingerprint layout
// or other engine options.
func checkFingerprint(found, want string) error {
	if found == want {
		return nil
	}
	if v, _, _ := strings.Cut(found, " "); v != fingerprintVersion {
		return fmt.Errorf("kbt: data directory was written at format version %q, this binary reads only %q (pre-1.0, a data directory is readable only by the version that wrote it)", v, fingerprintVersion)
	}
	return fmt.Errorf("kbt: checkpoint was taken under different engine options (%q, engine has %q)", found, want)
}

// replayRefresh runs one recovered refresh. A marker logged before any record
// was ingested is for a refresh that could not have succeeded and replays as
// nothing; a redundant marker costs only the engine's own NoOp shortcut.
func replayRefresh(eng *engine.Engine) error {
	if eng.Len() == 0 {
		return nil
	}
	_, err := eng.Refresh()
	return err
}

// OpenDurable opens (or creates) a durable engine rooted at dir, recovering
// whatever state a previous process made durable: the checkpoint chain's
// operation sequence is replayed through the normal Ingest/Refresh paths,
// then every log entry past the chain watermark is replayed the same way. A
// torn log tail — an append no one was ever acknowledged for — is truncated;
// damage to acknowledged state surfaces as wal.ErrCorrupt.
func OpenDurable(dir string, opt EngineOptions, dopt DurableOptions) (*DurableEngine, error) {
	eng, err := newInner(opt)
	if err != nil {
		return nil, err
	}
	fp := engineFingerprint(opt)
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: dopt.segmentBytes,
		FS:           dopt.fs,
	})
	if err != nil {
		return nil, err
	}
	ck, ok, err := wal.ReadCheckpoint(dopt.fs, dir)
	if err != nil {
		log.Close()
		return nil, err
	}
	dopt.compactAfterBatches = cmp.Or(dopt.compactAfterBatches, defaultCompactAfterBatches)
	d := &DurableEngine{view: view{eng: eng, opt: opt}, dopt: dopt, dir: dir, log: log}
	d.keys.cap = cmp.Or(dopt.keyRetention, defaultKeyRetention)
	var from uint64
	if ok {
		if err := checkFingerprint(ck.Fingerprint, fp); err != nil {
			log.Close()
			return nil, err
		}
		if ck.Watermark > log.NextSeq() {
			log.Close()
			return nil, fmt.Errorf("%w: checkpoint watermark %d is beyond the log end %d (log segments deleted?)",
				wal.ErrCorrupt, ck.Watermark, log.NextSeq())
		}
		for i := range ck.Ops {
			op := &ck.Ops[i]
			if len(op.Records) > 0 {
				if err := eng.Ingest(op.Records...); err != nil {
					log.Close()
					return nil, fmt.Errorf("%w: checkpoint records no longer ingestable: %v", wal.ErrCorrupt, err)
				}
			}
			// Chain ops record only applied transitions, so the key re-seeds
			// the dedup set unconditionally.
			d.keys.add(op.Key)
			for r := 0; r < op.Refreshes; r++ {
				if err := replayRefresh(eng); err != nil {
					log.Close()
					return nil, fmt.Errorf("kbt: recovery chain refresh (op %d): %w", i, err)
				}
			}
		}
		from = ck.Watermark
		d.hasChain = true
		d.ckWatermark = ck.Watermark
		d.chainBatches = ck.Batches()
	}
	err = log.Replay(from, func(seq uint64, payload []byte) error {
		d.logged += int64(len(payload))
		ent, err := wal.DecodeEntry(payload)
		if err != nil {
			return fmt.Errorf("%w: entry %d: %v", wal.ErrCorrupt, seq, err)
		}
		switch ent.Kind {
		case wal.EntryBatch, wal.EntryKeyedBatch:
			// A keyed batch whose key is already seen (from the chain or an
			// earlier log entry) was a client resend racing a restart; the
			// live process deduplicated it then, and replay does now.
			if d.keys.has(ent.Key) {
				return nil
			}
			// The live process logged the batch before engine validation, so
			// a batch the engine rejected then is rejected again now — the
			// same deterministic validation — and contributes no state.
			if err := eng.Ingest(ent.Records...); err != nil {
				return nil
			}
			d.noteBatch(len(ent.Records), ent.Key)
			d.keys.add(ent.Key)
		case wal.EntryRefresh:
			if eng.Len() == 0 {
				return nil // no state, so nothing for a checkpoint to carry
			}
			if err := replayRefresh(eng); err != nil {
				return fmt.Errorf("kbt: recovery replay refresh at entry %d: %w", seq, err)
			}
			d.noteRefresh()
		case wal.EntryProbe:
			// Health-probe round-trip: no state.
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	d.publishLocked()
	return d, nil
}

// publishLocked replaces the published health with the one the engine is in
// now. Called with d.mu held (or before the engine is shared).
func (d *DurableEngine) publishLocked() {
	v := &healthView{
		HealthStatus: HealthStatus{
			State:               d.state,
			Faults:              d.faults,
			Heals:               d.heals,
			WALBytes:            d.logged,
			CheckpointWatermark: d.ckWatermark,
			LogBytes:            d.log.Bytes(),
		},
		nextProbe: d.nextProbe,
		lastCkpt:  d.lastCkpt,
		closed:    d.closed,
	}
	if d.lastFault != nil {
		v.LastFault = d.lastFault.Error()
	}
	d.status.Store(v)
}

// unlock is how every mutator releases d.mu: it publishes the health the
// mutator leaves behind first, so no Health load after a mutator returns sees
// an older one.
func (d *DurableEngine) unlock() {
	d.publishLocked()
	d.mu.Unlock()
}

// noteBatch and noteRefresh record an applied state transition for the next
// delta checkpoint. Consecutive refreshes fold into the trailing op, so an
// op is "one ingest batch, then N refreshes" (or N refreshes alone). The n
// records of a batch just taken in are the engine table's last n rows.
func (d *DurableEngine) noteBatch(n int, key string) {
	to := d.eng.Len()
	d.opsSince = append(d.opsSince, wal.CheckpointOp{From: to - n, To: to, Key: key})
	d.newBatches++
}

func (d *DurableEngine) noteRefresh() {
	if n := len(d.opsSince); n > 0 {
		d.opsSince[n-1].Refreshes++
		return
	}
	d.opsSince = append(d.opsSince, wal.CheckpointOp{Refreshes: 1})
}

// setHealthLocked transitions the state machine, notifying OnHealthChange.
func (d *DurableEngine) setHealthLocked(to HealthState, cause error) {
	from := d.state
	if from == to {
		return
	}
	d.state = to
	if d.dopt.OnHealthChange != nil {
		d.dopt.OnHealthChange(from, to, cause)
	}
}

// storageFault marks a checkpointLocked failure whose cause is the disk —
// a WAL append/sync, checkpoint publication, or log truncation error. Only
// these may degrade the engine's health: checkpointLocked can also fail for
// reasons that have nothing to do with storage (a model error in the
// pre-checkpoint refresh, a compaction rebuild failure), and degrading on
// those would make a healthy disk's probe heal the engine just for the next
// checkpoint to degrade it again — health flapping with spurious ErrReadOnly
// on ingests in between.
type storageFault struct{ err error }

func (e *storageFault) Error() string { return e.err.Error() }
func (e *storageFault) Unwrap() error { return e.err }

// faultLocked routes a checkpointLocked failure: storage faults degrade the
// engine read-only (the returned error wraps ErrReadOnly); anything else
// surfaces unchanged, leaving health alone.
func (d *DurableEngine) faultLocked(err error) error {
	var sf *storageFault
	if errors.As(err, &sf) {
		return d.degradeLocked(sf.err)
	}
	return err
}

// degradeLocked records a storage fault and moves the engine to degraded
// read-only (sealed, if the fault is sealed-region corruption). The torn tail
// is repaired immediately when the disk allows; otherwise the next probe
// retries. The returned error wraps both ErrReadOnly and the cause.
func (d *DurableEngine) degradeLocked(err error) error {
	d.faults++
	d.lastFault = err
	initial, _ := d.dopt.probeBounds()
	d.probeDelay = initial
	d.nextProbe = d.dopt.clock()().Add(initial)
	if errors.Is(err, wal.ErrCorrupt) {
		d.setHealthLocked(StateSealed, err)
	} else {
		d.setHealthLocked(StateDegraded, err)
		if d.log.Failed() {
			// Best effort: a failure here leaves the log poisoned and the
			// probe path repairs it before the next append.
			_ = d.log.Repair()
		}
	}
	return fmt.Errorf("%w: %w", ErrReadOnly, err)
}

// gateLocked is the mutator gate: healthy proceeds, sealed fails permanently,
// degraded fails fast until the backoff elapses and then attempts a heal.
func (d *DurableEngine) gateLocked() error {
	switch d.state {
	case StateHealthy:
		return nil
	case StateSealed:
		return fmt.Errorf("%w (unrecoverable): %w", ErrReadOnly, d.lastFault)
	}
	now := d.dopt.clock()()
	if now.Before(d.nextProbe) {
		return fmt.Errorf("%w (next probe in %s): %w",
			ErrReadOnly, d.nextProbe.Sub(now).Round(time.Millisecond), d.lastFault)
	}
	return d.probeLocked(now)
}

// probeLocked attempts to heal a degraded engine: repair the torn tail, then
// prove the disk with a probe append + fsync round-trip — only a full
// round-trip counts, since a failed fsync may have dropped dirty pages that
// a bare retry would not rewrite. Success transitions back to healthy;
// failure doubles the backoff.
func (d *DurableEngine) probeLocked(now time.Time) error {
	err := func() error {
		if d.log.Failed() {
			if err := d.log.Repair(); err != nil {
				return err
			}
		}
		if err := d.appendLocked(wal.EncodeProbe()); err != nil {
			return err
		}
		return d.log.Sync()
	}()
	if err != nil {
		d.faults++
		d.lastFault = err
		_, max := d.dopt.probeBounds()
		d.probeDelay *= 2
		if d.probeDelay > max {
			d.probeDelay = max
		}
		d.nextProbe = now.Add(d.probeDelay)
		if errors.Is(err, wal.ErrCorrupt) {
			d.setHealthLocked(StateSealed, err)
		}
		return fmt.Errorf("%w (probe failed): %w", ErrReadOnly, err)
	}
	d.heals++
	d.probeDelay, _ = d.dopt.probeBounds()
	d.setHealthLocked(StateHealthy, nil)
	return nil
}

// Health reports the engine's health, fault history, and storage watermarks
// as of the last mutator to return: one atomic load of the published status,
// with RetryAfter derived from the probe deadline on the engine's clock. It
// never waits behind a running refresh, checkpoint or compaction — except on
// a degraded engine whose probe backoff has elapsed, where Health takes the
// mutator lock and runs the heal probe itself: healing must not depend on
// write traffic, or a node a load balancer drained on a 503 health check (no
// ingests ever arrive) would stay read-only forever after the disk recovered.
// Health-check polling is exactly the traffic such a node still gets.
func (d *DurableEngine) Health() HealthStatus {
	v := d.status.Load()
	if v.State == StateDegraded && !v.closed && !d.dopt.clock()().Before(v.nextProbe) {
		d.mu.Lock()
		// Re-checked under the lock: a mutator or another poller may have
		// probed (or closed the engine) since the load.
		if now := d.dopt.clock()(); !d.closed && d.state == StateDegraded && !now.Before(d.nextProbe) {
			_ = d.probeLocked(now) // failure shows up in the report below
		}
		d.unlock()
		v = d.status.Load()
	}
	st := v.HealthStatus
	now := d.dopt.clock()()
	if st.State == StateDegraded {
		if ra := v.nextProbe.Sub(now); ra > 0 {
			st.RetryAfter = ra
		}
	}
	if !v.lastCkpt.IsZero() {
		st.CheckpointAge = now.Sub(v.lastCkpt)
	}
	return st
}

// Ingest logs, fsyncs and applies a batch of extractions. A nil return is a
// durable acknowledgement: the batch survives any later crash. A validation
// error means the batch was discarded whole — durably so, since recovery
// re-runs the same validation on the logged bytes. A cadence checkpoint the
// batch triggers does not change the answer: its failure goes to Health.
func (d *DurableEngine) Ingest(batch ...Extraction) error {
	return d.IngestKeyed("", batch...)
}

// IngestKeyed is Ingest with a client idempotency key: a key whose batch was
// already durably applied — in this process or any recovered predecessor —
// is acknowledged with nil without re-ingesting, so an at-least-once client
// that timed out on an ambiguous ack can resend safely. The key is recorded
// in the WAL entry and in checkpoint ops, which is what lets the dedup set
// survive recovery. An empty key is a plain Ingest.
func (d *DurableEngine) IngestKeyed(key string, batch ...Extraction) error {
	recs := records(batch)
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return ErrEngineClosed
	}
	if d.keys.has(key) {
		// Exactly-once: the earlier send was durably applied, so the resend
		// is acked without touching the (possibly faulty) disk. Only the
		// most recent 64Ki keys are retained — an older resend is past the
		// documented retry window and applies as a new batch.
		return nil
	}
	if err := d.gateLocked(); err != nil {
		return err
	}
	entry := wal.EncodeKeyedBatch(key, recs)
	if len(entry) > wal.MaxRecordBytes {
		// The request's fault, not the disk's: refused whole before anything
		// is logged, so health stays as it is and smaller batches still land.
		return fmt.Errorf("kbt: rejecting ingest batch: its log entry of %d bytes exceeds the %d-byte record limit; split the batch",
			len(entry), wal.MaxRecordBytes)
	}
	if err := d.appendLocked(entry); err != nil {
		return d.degradeLocked(err)
	}
	if err := d.log.Sync(); err != nil {
		return d.degradeLocked(err)
	}
	if err := d.eng.Ingest(recs...); err != nil {
		// Validation rejection, not a storage fault: the batch is discarded
		// whole (recovery re-runs the same validation) and the key is not
		// recorded, so a resend earns the same rejection.
		return err
	}
	d.noteBatch(len(recs), key)
	d.keys.add(key)
	if d.cadenceDue() {
		if err := d.checkpointLocked(); err != nil {
			// The batch itself is applied and durable, so it is acked: an
			// error would invite an unkeyed retry that ingests it twice. A
			// storage fault degrades health, so the next write gets
			// ErrReadOnly; a model error in the checkpoint's pre-refresh comes
			// back from the next Refresh, which re-runs it.
			_ = d.faultLocked(err)
		}
	}
	return nil
}

// Refresh re-estimates the model over everything ingested so far, exactly as
// Engine.Refresh does, and logs a replay marker for the refresh. The marker
// is not individually fsync-ed — see the type comment. When a checkpoint
// cadence comes due, the Refresh also takes a checkpoint.
func (d *DurableEngine) Refresh() (*Result, error) {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return nil, ErrEngineClosed
	}
	if err := d.gateLocked(); err != nil {
		return nil, err
	}
	r, err := d.refreshLocked()
	if err != nil {
		var torn *storageFault
		if errors.As(err, &torn) {
			err = fmt.Errorf("kbt: refresh succeeded but its marker could not be logged: %w", d.degradeLocked(torn.err))
		}
		return nil, err
	}
	d.refreshes++
	if d.cadenceDue() {
		if err := d.checkpointLocked(); err != nil {
			return nil, fmt.Errorf("kbt: refresh succeeded but its checkpoint failed: %w", d.faultLocked(err))
		}
		// A compacting checkpoint replaced the generation r belongs to;
		// serve the cold one so the caller sees what recovery would.
		if cur, ok := d.Current(); ok {
			return cur, nil
		}
	}
	return r, nil
}

// refreshLocked is the one refresh-and-mark sequence: re-estimate the live
// engine, append the refresh's replay marker, note the refresh for the next
// delta checkpoint. A marker that tore comes back as a storageFault, but the
// refresh is applied to the live engine all the same, so it is noted anyway:
// the next delta then carries it, keeping recovery in lockstep with this
// surviving process. (A crash before that checkpoint rolls the refresh back
// to "records pending" — the documented un-synced-marker contract.)
func (d *DurableEngine) refreshLocked() (*Result, error) {
	r, err := d.refresh()
	if err != nil {
		return nil, err
	}
	err = d.appendLocked(wal.EncodeRefresh())
	d.noteRefresh()
	if err != nil {
		return nil, &storageFault{err}
	}
	return r, nil
}

// appendLocked appends one entry to the log and counts its bytes toward the
// CheckpointBytes cadence.
func (d *DurableEngine) appendLocked(payload []byte) error {
	if _, err := d.log.Append(payload); err != nil {
		return err
	}
	d.logged += int64(len(payload))
	return nil
}

// cadenceDue reports whether a checkpoint cadence has come due: the refresh
// count, the bytes logged or the batches applied (which compacts) since the
// last checkpoint. Called with d.mu held, after an applied Ingest or Refresh.
func (d *DurableEngine) cadenceDue() bool {
	o := d.dopt
	return o.CheckpointEvery > 0 && d.refreshes >= o.CheckpointEvery ||
		o.CheckpointBytes > 0 && d.logged >= o.CheckpointBytes ||
		o.compactAfterBatches > 0 && d.newBatches >= o.compactAfterBatches
}

// Checkpoint persists the operations performed since the last checkpoint as
// a delta on the chain and truncates the log segments the chain covers —
// see the type comment for the incremental/compaction contract. Pending
// records are refreshed in first, so the checkpoint always sits on a
// refresh boundary.
func (d *DurableEngine) Checkpoint() error {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return ErrEngineClosed
	}
	if err := d.gateLocked(); err != nil {
		return err
	}
	if err := d.checkpointLocked(); err != nil {
		return d.faultLocked(err)
	}
	return nil
}

func (d *DurableEngine) checkpointLocked() error {
	if d.Pending() > 0 {
		if _, err := d.refreshLocked(); err != nil {
			return err
		}
	}
	// The ops and the watermark must cover the same durable prefix, so
	// everything logged so far is synced before NextSeq is read.
	if err := d.log.Sync(); err != nil {
		return &storageFault{err}
	}
	watermark := d.log.NextSeq()
	if d.hasChain && len(d.opsSince) == 0 && watermark == d.ckWatermark {
		d.refreshes, d.logged = 0, 0
		return nil // nothing happened since the last checkpoint
	}
	fp := engineFingerprint(d.opt)
	// The ops name rows of the engine's table, which holds every record.
	tab := d.eng.Table()
	for i := range d.opsSince {
		d.opsSince[i].Table = tab
	}
	switch compactAfter := d.dopt.compactAfterBatches; {
	case compactAfter > 0 && d.chainBatches+d.newBatches >= compactAfter:
		// Compact: one cold base replaces the chain, and the live engine
		// re-estimates its records cold — the exact state recovery would
		// rebuild from the image just written. From here on, live and
		// recovered state march in lockstep through the same warm refreshes
		// again. The engine holds records here: both batch counters count
		// only applied ops that carry records, and compactAfter is at least 1.
		ops := []wal.CheckpointOp{{Table: tab, To: tab.Len(), Refreshes: 1}}
		// Folding the chain into one record op loses the per-op keys, so the
		// retained dedup set rides the base explicitly as key-only ops —
		// recovery re-seeds from op.Key and a key-only op contributes no
		// state. Without this, a client resend racing a compaction + restart
		// would double-apply, breaking exactly-once across recovery.
		for _, key := range d.keys.keys() {
			ops = append(ops, wal.CheckpointOp{Key: key})
		}
		ck := &wal.Checkpoint{Watermark: watermark, Fingerprint: fp, Ops: ops}
		if err := wal.WriteCheckpointBase(d.dopt.fs, d.dir, ck); err != nil {
			return &storageFault{err}
		}
		r, err := d.eng.RefreshCold()
		if err != nil {
			return err
		}
		// The cold generation shares no chunk with the warm one, so its
		// wrapper is installed now rather than by the next reader: the
		// cached wrapper would otherwise hold the whole warm generation.
		d.wrap(r)
		d.chainBatches = 1
	case d.hasChain:
		ck := &wal.Checkpoint{Watermark: watermark, Fingerprint: fp, Ops: d.opsSince}
		if err := wal.WriteCheckpointDelta(d.dopt.fs, d.dir, d.ckWatermark, ck); err != nil {
			// The publication may have landed before the failure — the rename
			// goes through, then the directory sync faults. If the chain now
			// ends at our watermark the ops are durably covered and must not
			// ride a second delta: a retry carrying them again would link to a
			// stale parent and double-apply on replay. Advance the in-memory
			// chain state to match the disk; the covered log segments are kept
			// (the rename's durability is unproven without the dir sync, and
			// recovery is consistent from either state — chain if the delta
			// survives, log replay if it vanishes). The error still surfaces:
			// the disk is faulty and the engine degrades either way.
			if got, ok, rerr := wal.ReadCheckpoint(d.dopt.fs, d.dir); rerr == nil && ok && got.Watermark == watermark {
				d.ckWatermark = watermark
				d.chainBatches += d.newBatches
				d.opsSince, d.newBatches = nil, 0
				d.refreshes, d.logged = 0, 0
			}
			return &storageFault{err}
		}
		d.chainBatches += d.newBatches
	default:
		// First checkpoint of this directory: the ops since birth are the
		// whole history, so the base is warm-replayable and the live engine
		// keeps its carried-over state — no cold rebuild.
		ck := &wal.Checkpoint{Watermark: watermark, Fingerprint: fp, Ops: d.opsSince}
		if err := wal.WriteCheckpointBase(d.dopt.fs, d.dir, ck); err != nil {
			return &storageFault{err}
		}
		d.chainBatches = d.newBatches
	}
	d.hasChain = true
	d.ckWatermark = watermark
	d.opsSince, d.newBatches = nil, 0
	d.refreshes, d.logged = 0, 0
	d.lastCkpt = d.dopt.clock()()
	if err := d.log.TruncateBefore(watermark); err != nil {
		return &storageFault{err}
	}
	return nil
}

// Close syncs and closes the log. Read accessors keep serving the last
// published generation; mutators fail with ErrEngineClosed.
func (d *DurableEngine) Close() error {
	d.mu.Lock()
	defer d.unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
