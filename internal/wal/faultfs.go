package wal

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// FaultOp classifies the filesystem mutations a FaultFS can fail. Each class
// has its own call counter, so a schedule can say "the 3rd fsync fails"
// independently of how many writes preceded it.
type FaultOp int

const (
	OpWrite FaultOp = iota
	OpSync
	OpSyncDir
	OpCreate // OpenFile with O_CREATE or O_TRUNC
	OpRename
	OpRemove
	OpTruncate
	OpMkdir
	OpCrash // not a call class but the crash budget's unit counter; see Fault
	opRead  // reads, seeks, listings, read-only opens: counted, never scheduled
	numFaultOps
)

var faultOpNames = [numFaultOps]string{
	OpWrite: "write", OpSync: "sync", OpSyncDir: "syncdir", OpCreate: "create",
	OpRename: "rename", OpRemove: "remove", OpTruncate: "truncate", OpMkdir: "mkdir",
	OpCrash: "crash", opRead: "read",
}

func (op FaultOp) String() string {
	if op < 0 || op >= numFaultOps {
		return "unknown"
	}
	return faultOpNames[op]
}

// Convenient fault errors. Real syscall errnos so errors.Is works the same
// way it would against a genuine disk.
var (
	ErrInjectedIO      error = syscall.EIO
	ErrInjectedNoSpace error = syscall.ENOSPC
)

// ErrCrashed is what every operation returns once an OpCrash fault has fired
// — the injected "process died here".
var ErrCrashed = errors.New("wal: injected crash")

// Fault is one scheduled injection: starting with the After-th call (0-based,
// counted per op class since the FaultFS was created), Times consecutive
// matching calls fail with Err. Times <= 0 makes the fault persistent — every
// later matching call fails, modelling a disk that never comes back.
//
// For OpWrite faults, ShortBytes > 0 lands that prefix of the failing write
// in the backing file before the error — a short (torn) write, as a real
// ENOSPC mid-write would leave.
//
// An OpCrash fault reads only After, as a budget of mutation units — one per
// byte written, one per create/trunc-open, remove, rename, mkdir, syncdir,
// fsync and truncate. The first operation the remaining budget cannot cover
// lands the affordable prefix — a Write its first remaining-budget bytes,
// modelling a torn write — and kills the filesystem: from then on every
// operation, reads and read-only opens included, fails with ErrCrashed,
// exactly as if the process had been killed at that byte; only Close still
// forwards. Sweeping After from zero upward therefore kills a deterministic
// workload at every byte offset of every append and at every stage of a
// checkpoint publication. Recovery tests reopen through a fresh FS, as a
// restarted process would.
type Fault struct {
	Op         FaultOp
	After      int
	Err        error
	Times      int
	ShortBytes int
}

// FaultFS wraps an FS and injects faults on a schedule — the one injection
// filesystem under every crash, chaos and fault test. Per-op faults are
// survivable: once a transient fault's Times are exhausted, later calls
// succeed again, which is the substrate for testing degraded-mode healing.
// An OpCrash fault is final, the substrate for testing crash recovery. One
// schedule may hold both: the disk hiccups, heals, and then the process dies.
//
// Counters are global across files (not per handle), so a deterministic
// workload hits a deterministic schedule. Reads never fault before a crash.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	calls    [numFaultOps]int
	faults   []Fault
	injected int
	crashAt  int // the schedule's smallest OpCrash budget; -1 when it has none
	crashed  bool
}

// NewFaultFS wraps inner (nil = OSFS) with the given fault schedule.
func NewFaultFS(inner FS, faults ...Fault) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	f := &FaultFS{inner: inner, faults: faults, crashAt: -1}
	for _, ft := range faults {
		if ft.Op == OpCrash && (f.crashAt < 0 || ft.After < f.crashAt) {
			f.crashAt = ft.After
		}
	}
	return f
}

// Injected reports how many faults have fired so far.
func (f *FaultFS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Calls reports how many operations of class op have been attempted — for
// OpCrash, how many mutation units have landed.
func (f *FaultFS) Calls(op FaultOp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// check advances op's counter and consults the schedule for a call that
// would land units mutation units (len(p) for a Write, 0 on the read side, 1
// for everything else). It returns how many of them should reach the backing
// filesystem and the injected error: (units, nil) when the call should
// proceed, a short prefix — zero except for writes — with the error otherwise.
func (f *FaultFS) check(op FaultOp, units int) (land int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	n := f.calls[op]
	f.calls[op]++
	land = units
	for i := range f.faults {
		ft := &f.faults[i]
		if ft.Op != op || n < ft.After {
			continue
		}
		if ft.Times > 0 && n >= ft.After+ft.Times {
			continue
		}
		land, err = 0, ft.Err
		if op == OpWrite {
			land = min(ft.ShortBytes, units)
		}
		break
	}
	// The crash budget is charged for what actually lands, after the per-op
	// schedule had its say; the call it cannot cover lands what is left of it
	// and dies.
	if spent := f.calls[OpCrash]; f.crashAt >= 0 && spent+land > f.crashAt {
		f.crashed = true
		land, err = f.crashAt-spent, ErrCrashed
	}
	if err != nil {
		f.injected++
	}
	f.calls[OpCrash] += land
	return land, err
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		if _, err := f.check(OpCreate, 1); err != nil {
			return nil, err
		}
	} else if _, err := f.check(opRead, 0); err != nil {
		// Read-only opens are free while alive; a dead FS rejects even them
		// so a half-finished operation cannot keep using the handle supply
		// after its "process" died.
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) ReadDir(name string) ([]string, error) {
	if _, err := f.check(opRead, 0); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.check(OpRemove, 1); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Rename(oldp, newp string) error {
	if _, err := f.check(OpRename, 1); err != nil {
		return err
	}
	return f.inner.Rename(oldp, newp)
}

func (f *FaultFS) MkdirAll(p string, m fs.FileMode) error {
	if _, err := f.check(OpMkdir, 1); err != nil {
		return err
	}
	return f.inner.MkdirAll(p, m)
}

func (f *FaultFS) SyncDir(name string) error {
	if _, err := f.check(OpSyncDir, 1); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if _, err := f.fs.check(opRead, 0); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	land, err := f.fs.check(OpWrite, len(p))
	if err != nil {
		n := 0
		if land > 0 {
			// The torn prefix reaches the backing file even though the call
			// fails — exactly what a mid-write ENOSPC or a kill leaves behind.
			n, _ = f.inner.Write(p[:land])
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if _, err := f.fs.check(opRead, 0); err != nil {
		return 0, err
	}
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.check(OpSync, 1); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.check(OpTruncate, 1); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Close() error {
	// Closing never faults and is forwarded even after a crash: handles must
	// not leak on a faulty or dead disk.
	return f.inner.Close()
}
