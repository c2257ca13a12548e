package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
)

// The job journal is soteriad's write-ahead log of job lifecycle
// events. Every accepted job is appended and fsynced before the client
// sees its acknowledgment, so a crash — SIGKILL, OOM, power cut — can
// lose only work the client was never told was accepted. Terminal
// entries are appended after the job's records are in the store, but
// without an fsync of their own: the next accepted entry's group
// commit, or close, makes them durable. A crash can therefore lose a
// terminal entry, which only makes replay run the job again (a store
// hit when a store is configured). On restart the journal is replayed:
// incomplete jobs re-enqueue with their original IDs, terminal jobs
// rebuild the /v1/jobs table, and client-supplied idempotency keys
// keep resubmissions from running twice.
//
// Wire format — one entry per line:
//
//	<crc32-ieee-hex8> <canonical JSON of journalEvent>\n
//
// json.Marshal never emits raw newlines, so lines frame entries; the
// checksum covers the JSON bytes. Replay stops at the first entry that
// fails its checksum or does not parse — the classic torn-tail rule —
// and the file is truncated back to the last good entry.
//
// The file is an fsio.Log, so appends are fsync-batched (group
// commit): concurrent appenders pile up behind one fsync, so a burst of
// accepted jobs costs one disk flush, not one per job.

// journalOp is a lifecycle event kind.
const (
	opAccepted = "accepted" // job journaled before its ack
	opRejected = "rejected" // accepted entry withdrawn (queue full)
	opDone     = "done"     // terminal: success
	opFailed   = "failed"   // terminal: hard input error
)

// journalEvent is one journal entry. Accepted events carry the whole
// job — sources and options — so replay can re-run it; terminal events
// carry per-item results by store key (the record bytes live in the
// content-addressed store, not the journal).
type journalEvent struct {
	Op        string          `json:"op"`
	Job       string          `json:"job"`
	Idem      string          `json:"idem,omitempty"`
	Batch     bool            `json:"batch,omitempty"`
	Trace     string          `json:"trace,omitempty"`
	Items     []journalItem   `json:"items,omitempty"`
	Opts      *journalOptions `json:"opts,omitempty"`
	Results   []journalResult `json:"results,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms,omitempty"`
}

type journalItem struct {
	Key  string      `json:"key,omitempty"`
	Apps []appSource `json:"apps"`
}

// journalOptions is the serializable form of core.Options: a replayed
// job re-runs as submitted and stores its result under the same
// AnalysisKey. Taint is a pointer because entries written before it
// was journaled carry no "taint" key; those replay with the request
// default, taint on.
type journalOptions struct {
	General         bool     `json:"general"`
	AppSpecific     bool     `json:"app_specific"`
	Taint           *bool    `json:"taint,omitempty"`
	PropertyIDs     []string `json:"property_ids,omitempty"`
	TimeoutMS       int64    `json:"timeout_ms,omitempty"`
	MaxStates       int      `json:"max_states,omitempty"`
	MaxBDDNodes     int      `json:"max_bdd_nodes,omitempty"`
	MaxSATConflicts int      `json:"max_sat_conflicts,omitempty"`
	MaxFormulaDepth int      `json:"max_formula_depth,omitempty"`
}

// journalResult is one item of a terminal entry. Stored marks a
// complete record, which the store must hold under StoreKey: replay
// re-runs a job whose stored record does not read back.
type journalResult struct {
	Key      string `json:"key,omitempty"`
	StoreKey string `json:"store_key,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Stored   bool   `json:"stored,omitempty"`
	Err      string `json:"err,omitempty"`
}

func optionsToJournal(o core.Options) *journalOptions {
	return &journalOptions{
		General:         o.General,
		AppSpecific:     o.AppSpecific,
		Taint:           &o.Taint,
		PropertyIDs:     o.PropertyIDs,
		TimeoutMS:       o.Limits.Timeout.Milliseconds(),
		MaxStates:       o.Limits.MaxStates,
		MaxBDDNodes:     o.Limits.MaxBDDNodes,
		MaxSATConflicts: o.Limits.MaxSATConflicts,
		MaxFormulaDepth: o.Limits.MaxFormulaDepth,
	}
}

func (jo *journalOptions) core() core.Options {
	if jo == nil {
		return core.DefaultOptions()
	}
	return core.Options{
		General:     jo.General,
		AppSpecific: jo.AppSpecific,
		Taint:       jo.Taint == nil || *jo.Taint,
		PropertyIDs: jo.PropertyIDs,
		Limits: guard.Limits{
			Timeout:         time.Duration(jo.TimeoutMS) * time.Millisecond,
			MaxStates:       jo.MaxStates,
			MaxBDDNodes:     jo.MaxBDDNodes,
			MaxSATConflicts: jo.MaxSATConflicts,
			MaxFormulaDepth: jo.MaxFormulaDepth,
		},
	}
}

// acceptedEvent snapshots a job into its accepted entry.
func acceptedEvent(j *job) journalEvent {
	ev := journalEvent{
		Op:    opAccepted,
		Job:   j.id,
		Idem:  j.idemKey,
		Batch: j.batch,
		Trace: j.trace,
		Opts:  optionsToJournal(j.opts),
	}
	for _, it := range j.items {
		ji := journalItem{Key: it.Key}
		for _, s := range it.Sources {
			ji.Apps = append(ji.Apps, appSource{Name: s.Name, Source: s.Source})
		}
		ev.Items = append(ev.Items, ji)
	}
	return ev
}

// jobFromAccepted reconstructs a runnable job from its accepted entry.
// Replayed jobs are async by construction: their original submitter is
// gone, so nobody waits on the done channel.
func jobFromAccepted(ev journalEvent) *job {
	j := &job{
		id:      ev.Job,
		idemKey: ev.Idem,
		batch:   ev.Batch,
		trace:   ev.Trace,
		async:   true,
		opts:    ev.Opts.core(),
		status:  statusQueued,
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, it := range ev.Items {
		bi := core.BatchItem{Key: it.Key}
		for _, a := range it.Apps {
			bi.Sources = append(bi.Sources, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		j.items = append(j.items, bi)
	}
	return j
}

// replayStats describe what opening a journal found.
type replayStats struct {
	// Entries is the count of valid entries replayed.
	Entries int
	// TruncatedBytes is how much torn tail was cut off.
	TruncatedBytes int
}

// journal is the append-only, fsync-batched job journal. A nil
// *journal is inert: appends succeed without doing anything, so a
// journal-less configuration threads through unconditionally.
type journal struct {
	log    *fsio.Log
	replay replayStats
}

// openJournal opens (or creates) the journal at path, replays its
// valid prefix, and truncates any torn tail in place. The returned
// events are in append order.
func openJournal(path string, fsys fsio.FS) (*journal, []journalEvent, error) {
	if fsys == nil {
		fsys = fsio.OS{}
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	var events []journalEvent
	log, cut, err := fsio.OpenLog(fsys, path, func(data []byte) int {
		var valid int
		events, valid = parseJournal(data)
		return valid
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &journal{log: log}
	j.replay.Entries = len(events)
	j.replay.TruncatedBytes = cut
	return j, events, nil
}

// parseJournal decodes the valid prefix of journal bytes, returning
// the events and the byte offset up to which the file is sound.
func parseJournal(data []byte) ([]journalEvent, int) {
	var events []journalEvent
	valid := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail entry
		}
		line := data[off : off+nl]
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		var sum uint32
		if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
			break
		}
		payload := line[9:]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var ev journalEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			break
		}
		events = append(events, ev)
		off += nl + 1
		valid = off
	}
	return events, valid
}

// compact rewrites the journal to exactly the given events — called
// after replay so completed history beyond the retention bound stops
// accumulating. An empty journal with nothing to keep, a first start,
// is left as it is.
func (j *journal) compact(events []journalEvent) error {
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := encodeEntry(ev)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	if buf.Len() == 0 && j.log.Size() == 0 {
		return nil
	}
	if err := j.log.Rewrite(buf.Bytes()); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// encodeEntry frames one event as a checksummed journal line.
func encodeEntry(ev journalEvent) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding event: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	return append(line, '\n'), nil
}

// append writes one event durably: the call returns only after an
// fsync covering the entry. Concurrent appenders share fsyncs (group
// commit): each waits only for the first flush that covers its write.
func (j *journal) append(ev journalEvent) error {
	if j == nil {
		return nil
	}
	seq, err := j.write(ev)
	if err != nil {
		return err
	}
	if err := j.log.SyncTo(seq); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// appendUnsynced writes one event without waiting for an fsync; the
// next group commit or close covers it. Only entries whose loss replay
// tolerates may take this path.
func (j *journal) appendUnsynced(ev journalEvent) error {
	if j == nil {
		return nil
	}
	_, err := j.write(ev)
	return err
}

// write appends one encoded event and returns its write sequence.
func (j *journal) write(ev journalEvent) (uint64, error) {
	line, err := encodeEntry(ev)
	if err != nil {
		return 0, err
	}
	_, seq, err := j.log.Append(line)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return seq, nil
}

// close syncs and closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
