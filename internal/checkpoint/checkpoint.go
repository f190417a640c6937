// Package checkpoint makes long-running campaigns restartable: a
// versioned, atomically written JSON snapshot of campaign state — the
// accumulated (I, D1) pairs, the packed fault-status set, coverage-curve
// points, cumulative clock-cycle cost, and a configuration hash binding
// the snapshot to one circuit, scan plan and parameter set.
//
// The paper's (I, D1) parameterization is what makes this cheap: the
// random schedule of every selected test set is a pure function of the
// campaign seed and the stored pair, so no generator state needs to be
// serialized — a resumed run re-derives seed(I) for the next iteration
// exactly as the uninterrupted run would have (see DESIGN.md).
//
// Snapshots carry a CRC32 of their canonical encoding. Load rejects any
// truncated or corrupted file with an errs.CorruptSnapshot error;
// writers go through Save, which writes a temporary file in the
// destination directory, fsyncs it, and renames it into place so a
// crash mid-write can never leave a half-written snapshot where a
// loader would accept it. All file I/O goes through an iofault.FS —
// the real filesystem in production, an injector in chaos tests — and
// transient write failures (EINTR, ENOSPC after the temp file is
// cleaned up, fsync errors) are retried with capped exponential
// backoff before the writer gives up with an errs.TransientIO error.
package checkpoint

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/iofault"
)

// Version is the snapshot format version. Load rejects any other value:
// a checkpoint written by a different format never resumes silently.
const Version = 1

// InterruptedError reports a run stopped by context cancellation after
// flushing its last completed boundary (iteration or fault chunk) to
// the checkpoint at Path (empty when checkpointing was not enabled).
type InterruptedError struct {
	Iteration int
	Path      string
	Err       error
}

func (e *InterruptedError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("checkpoint: interrupted at boundary %d (no checkpoint configured): %v", e.Iteration, e.Err)
	}
	return fmt.Sprintf("checkpoint: interrupted at boundary %d; snapshot saved to %s: %v", e.Iteration, e.Path, e.Err)
}

func (e *InterruptedError) Unwrap() error { return e.Err }

// Is matches the errs.Interrupted kind, so the CLIs can map any
// interruption — runner or simulator — onto exit code 3 with one check.
func (e *InterruptedError) Is(target error) bool { return target == errs.Interrupted }

// Campaign modes recorded in Meta. A snapshot from one mode never
// resumes a run of another.
const (
	ModeProcedure2 = "procedure2"
	ModeFaultSim   = "faultsim"
)

// Meta identifies the run a snapshot belongs to. Every field contributes
// to Hash, so resuming against a different circuit, scan plan or
// parameter set fails loudly instead of producing a wrong answer.
type Meta struct {
	Mode        string `json:"mode"`
	Circuit     string `json:"circuit"`
	CircuitHash string `json:"circuit_hash"`
	PlanLen     int    `json:"plan_len"`

	LA            int    `json:"la"`
	LB            int    `json:"lb"`
	N             int    `json:"n"`
	Seed          uint64 `json:"seed"`
	D1Order       []int  `json:"d1_order,omitempty"`
	NSameFC       int    `json:"n_same_fc,omitempty"`
	MaxIterations int    `json:"max_iterations,omitempty"`
	ReseedPerTest bool   `json:"reseed_per_test,omitempty"`
	UseLFSR       bool   `json:"use_lfsr,omitempty"`
	LFSRDegree    int    `json:"lfsr_degree,omitempty"`
	// Transition marks a faultsim snapshot over the transition-fault
	// universe rather than stuck-at.
	Transition bool `json:"transition,omitempty"`
}

// Hash returns the canonical hex digest of the meta block. It is
// recorded in the snapshot and checked on resume.
func (m Meta) Hash() string {
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // Meta contains only marshalable scalars and slices
	}
	return fmt.Sprintf("%08x", crc32.Checksum(b, crcTable))
}

// CircuitHash digests the netlist structure: gate types and fanin in ID
// order, the PI/PO interface, and the scan-chain order. Gate names are
// deliberately excluded — a renamed but structurally identical netlist
// yields identical campaigns.
func CircuitHash(c *circuit.Circuit) string {
	h := crc32.New(crcTable)
	buf := make([]byte, 0, 64)
	put := func(v int) {
		buf = buf[:0]
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
		h.Write(buf)
	}
	put(len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		put(int(g.Type))
		put(len(g.Fanin))
		for _, f := range g.Fanin {
			put(f)
		}
	}
	put(len(c.Inputs))
	for _, id := range c.Inputs {
		put(id)
	}
	put(len(c.Outputs))
	for _, id := range c.Outputs {
		put(id)
	}
	put(len(c.DFFs))
	for _, id := range c.DFFs {
		put(id)
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// Pair is one stored (I, D1) selection (core.PairResult, decoupled so
// this package does not import the runner).
type Pair struct {
	I        int   `json:"i"`
	D1       int   `json:"d1"`
	Detected int   `json:"detected"`
	Cycles   int64 `json:"cycles"`
}

// CurvePoint is one coverage-curve sample taken when a pair was
// selected.
type CurvePoint struct {
	I        int     `json:"i"`
	D1       int     `json:"d1"`
	Detected int     `json:"detected"`
	Cycles   int64   `json:"cycles"`
	Coverage float64 `json:"coverage"`
}

// Snapshot is the complete restartable state of a campaign at an
// iteration boundary.
type Snapshot struct {
	Version  int    `json:"version"`
	Meta     Meta   `json:"meta"`
	MetaHash string `json:"meta_hash"`

	// Iteration is the last fully completed iteration I (0 = only the
	// TS0 phase has run). For faultsim snapshots it is the fault-chunk
	// cursor instead.
	Iteration int `json:"iteration"`
	// NSame is Procedure 2's consecutive-no-improvement counter at the
	// snapshot point.
	NSame int `json:"n_same"`

	InitialDetected int   `json:"initial_detected"`
	InitialCycles   int64 `json:"initial_cycles"`
	TotalCycles     int64 `json:"total_cycles"`
	Untestable      int   `json:"untestable"`

	Pairs []Pair       `json:"pairs,omitempty"`
	Curve []CurvePoint `json:"curve,omitempty"`

	// Detected and Batches accumulate a faultsim session's progress
	// across completed fault chunks (Procedure 2 snapshots derive the
	// detection count from Pairs instead and leave these zero).
	Detected int `json:"detected,omitempty"`
	Batches  int `json:"batches,omitempty"`
	// ChunkFaults records the chunk size the faultsim Iteration cursor
	// was written under; a resume adopts it so the cursor is never
	// reinterpreted under different chunk geometry.
	ChunkFaults int `json:"chunk_faults,omitempty"`

	// NumFaults and States carry the packed per-fault status set
	// (2 bits per fault, base64; see EncodeStates).
	NumFaults int    `json:"num_faults"`
	States    string `json:"states"`

	// Detection-site attribution accumulated so far (faultsim mode).
	SitePO          int `json:"site_po,omitempty"`
	SiteLimitedScan int `json:"site_limited_scan,omitempty"`
	SiteScanOut     int `json:"site_scan_out,omitempty"`

	// Checksum is the CRC32 (hex) of the snapshot encoded with this
	// field empty. Decode recomputes and compares it.
	Checksum string `json:"checksum"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeStates packs fault statuses two bits per fault into base64.
func EncodeStates(st []fault.Status) string {
	packed := make([]byte, (len(st)+3)/4)
	for i, s := range st {
		packed[i/4] |= byte(s&3) << uint((i%4)*2)
	}
	return base64.StdEncoding.EncodeToString(packed)
}

// DecodeStates unpacks an EncodeStates string of exactly n faults. Any
// inconsistency is an errs.CorruptSnapshot error.
func DecodeStates(s string, n int) ([]fault.Status, error) {
	if n < 0 {
		return nil, errs.Newf(errs.CorruptSnapshot, "checkpoint: negative fault count %d", n)
	}
	packed, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, errs.Wrap(errs.CorruptSnapshot, fmt.Errorf("checkpoint: fault states: %w", err))
	}
	if len(packed) != (n+3)/4 {
		return nil, errs.Newf(errs.CorruptSnapshot, "checkpoint: fault states hold %d bytes, want %d for %d faults",
			len(packed), (n+3)/4, n)
	}
	// Trailing pad bits beyond fault n-1 must be zero, so every valid
	// state vector has exactly one encoding.
	if n%4 != 0 && len(packed) > 0 {
		if packed[len(packed)-1]>>uint((n%4)*2) != 0 {
			return nil, errs.Newf(errs.CorruptSnapshot, "checkpoint: fault states have nonzero padding bits")
		}
	}
	out := make([]fault.Status, n)
	for i := range out {
		out[i] = fault.Status(packed[i/4] >> uint((i%4)*2) & 3)
	}
	return out, nil
}

// RestoreStates decodes the snapshot's fault statuses into st, which
// must be the resuming run's fault-state slice: a snapshot of a
// different fault count is refused.
func (s *Snapshot) RestoreStates(st []fault.Status) error {
	states, err := DecodeStates(s.States, s.NumFaults)
	if err != nil {
		return err
	}
	if len(states) != len(st) {
		return fmt.Errorf("checkpoint: snapshot holds %d faults, this run has %d", len(states), len(st))
	}
	copy(st, states)
	return nil
}

// Encode marshals the snapshot with its checksum and meta hash filled
// in.
func (s *Snapshot) Encode() ([]byte, error) {
	c := *s
	c.Version = Version
	c.MetaHash = c.Meta.Hash()
	c.Checksum = ""
	body, err := json.Marshal(&c)
	if err != nil {
		return nil, err
	}
	c.Checksum = fmt.Sprintf("%08x", crc32.Checksum(body, crcTable))
	out, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Decode parses and validates an encoded snapshot. Any truncation or
// corruption — bad JSON, a version mismatch, a checksum mismatch, an
// inconsistent fault-state block — returns an errs.CorruptSnapshot
// error; Decode never panics and never returns a silently wrong
// snapshot.
func Decode(data []byte) (*Snapshot, error) {
	s, err := decode(data)
	if err != nil {
		return nil, errs.Wrap(errs.CorruptSnapshot, err)
	}
	return s, nil
}

func decode(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if s.Version != Version {
		return nil, fmt.Errorf("checkpoint: version %d, this build reads %d", s.Version, Version)
	}
	sum := s.Checksum
	s.Checksum = ""
	body, err := json.Marshal(&s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	want := fmt.Sprintf("%08x", crc32.Checksum(body, crcTable))
	if sum != want {
		return nil, fmt.Errorf("checkpoint: checksum %q does not match content (%q): truncated or corrupted snapshot", sum, want)
	}
	s.Checksum = sum
	if s.MetaHash != s.Meta.Hash() {
		return nil, fmt.Errorf("checkpoint: meta hash %q does not match meta block", s.MetaHash)
	}
	if _, err := DecodeStates(s.States, s.NumFaults); err != nil {
		return nil, err
	}
	if s.Iteration < 0 || s.NSame < 0 || s.Untestable < 0 || s.InitialDetected < 0 ||
		s.Detected < 0 || s.Batches < 0 || s.ChunkFaults < 0 {
		return nil, fmt.Errorf("checkpoint: negative progress fields")
	}
	for _, p := range s.Pairs {
		if p.I < 1 || p.D1 < 1 {
			return nil, fmt.Errorf("checkpoint: pair (%d,%d) out of range", p.I, p.D1)
		}
	}
	return &s, nil
}

// CheckMeta verifies that the snapshot belongs to the given run
// identity. It returns a descriptive errs.Input error naming the first
// divergence: the snapshot is valid, the invocation is what's wrong.
func (s *Snapshot) CheckMeta(want Meta) error {
	if s.Meta.Hash() == want.Hash() {
		return nil
	}
	got := s.Meta
	switch {
	case got.Mode != want.Mode:
		return errs.Newf(errs.Input, "checkpoint: snapshot is a %s checkpoint, this run is %s", got.Mode, want.Mode)
	case got.Circuit != want.Circuit:
		return errs.Newf(errs.Input, "checkpoint: snapshot was written for circuit %s, this run is %s", got.Circuit, want.Circuit)
	case got.CircuitHash != want.CircuitHash:
		return errs.Newf(errs.Input, "checkpoint: circuit %s changed structurally since the snapshot was written", want.Circuit)
	default:
		return errs.Newf(errs.Input, "checkpoint: snapshot parameters %+v do not match this run's %+v", got, want)
	}
}

// Save atomically writes the snapshot to path through the real
// filesystem with the default retry policy. It returns the encoded
// size.
func Save(path string, s *Snapshot) (int, error) {
	return SaveFS(nil, path, s, nil)
}

// SaveFS is Save through an explicit filesystem and retry policy (nil
// means iofault.OS and the default policy): encode, write to a
// temporary file in the same directory, fsync, rename over path, fsync
// the directory. A reader either sees the previous complete snapshot or
// the new one, never a partial write. Transient failures — EINTR,
// ENOSPC (the temp file is removed before each retry), fsync errors —
// are retried with capped exponential backoff; when the budget is spent
// the error is tagged errs.TransientIO so callers can enter degraded
// mode instead of aborting.
func SaveFS(fsys iofault.FS, path string, s *Snapshot, retry *iofault.Retry) (int, error) {
	data, err := s.Encode()
	if err != nil {
		return 0, err // an unmarshalable snapshot is a bug, not an I/O fault
	}
	if fsys == nil {
		fsys = iofault.OS
	}
	if err := retry.Do(func() error { return writeAtomic(fsys, path, data) }); err != nil {
		return 0, errs.Wrap(errs.TransientIO, fmt.Errorf("checkpoint: save %s: %w", path, err))
	}
	return len(data), nil
}

// writeAtomic is one attempt at the temp+fsync+rename dance. Each
// attempt cleans its temp file up on the way out, so a retry after
// ENOSPC starts with the space it had reclaimed.
func writeAtomic(fsys iofault.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer fsys.Remove(name) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		// An fsync failure says nothing durable about the next attempt:
		// mark it transient so the retry policy takes a fresh swing.
		return iofault.MarkTransient(err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		return err
	}
	if d, err := fsys.OpenDir(dir); err == nil {
		// Directory fsync is advisory on some filesystems; ignore errors.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Load reads and validates the snapshot at path. A missing or
// unreadable file is an errs.Input error; a file that fails validation
// is errs.CorruptSnapshot.
func Load(path string) (*Snapshot, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load through an explicit filesystem (nil means iofault.OS).
func LoadFS(fsys iofault.FS, path string) (*Snapshot, error) {
	if fsys == nil {
		fsys = iofault.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, errs.Wrap(errs.Input, err)
	}
	return Decode(data)
}
