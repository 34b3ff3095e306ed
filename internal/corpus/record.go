package corpus

import (
	"context"
	"encoding/json"
	"errors"
	"io"

	"o2"
	"o2/internal/obs"
)

// RecordSchema versions the streamed result record. Bump it whenever a
// field changes meaning or shape; consumers must reject records from a
// schema they do not know. (The race witness carries its own schema
// version — see race.WitnessSchema — this one covers the per-program
// envelope around it.)
const RecordSchema = 1

// Exit classes of a streamed program, mirroring the CLI exit-code
// contract (`o2 help`): the per-program analogue of the process exit
// code, so a corpus consumer can fold records into the same 0–6 space.
const (
	ClassOK       = "ok"       // exit 0: analyzed, no races
	ClassRaces    = "races"    // exit 1: analyzed, races found
	ClassParse    = "parse"    // exit 3: compile error (isolated to this program)
	ClassBudget   = "budget"   // exit 4: per-program budget or deadline
	ClassCanceled = "canceled" // exit 5: canceled mid-analysis
	ClassInternal = "internal" // exit 6: anything else
)

// ClassOf maps one program's outcome onto its exit class.
func ClassOf(err error, races int) string {
	switch {
	case err == nil && races > 0:
		return ClassRaces
	case err == nil:
		return ClassOK
	case errors.Is(err, o2.ErrCompile):
		return ClassParse
	case errors.Is(err, o2.ErrBudget):
		return ClassBudget
	case errors.Is(err, o2.ErrCanceled), errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassInternal
}

// Access is one side of a streamed race record.
type Access struct {
	Op     string `json:"op"`
	Pos    string `json:"pos"`
	Fn     string `json:"fn"`
	Origin string `json:"origin"`
}

// RaceEntry is one reported race in a streamed record — the same
// projection the batch scheduler serves, minus the witness (stream
// consumers re-request witnesses per race via `o2 analyze -explain-json`
// or the job API when they need derivations).
type RaceEntry struct {
	Location string `json:"location"`
	A        Access `json:"a"`
	B        Access `json:"b"`
}

// PhaseStats is the per-program RunStats summary every record carries:
// phase wall times.
type PhaseStats struct {
	PTANS    int64 `json:"pta_ns"`
	OSANS    int64 `json:"osa_ns"`
	SHBNS    int64 `json:"shb_ns"`
	DetectNS int64 `json:"detect_ns"`
	TotalNS  int64 `json:"total_ns"`
}

// Record is one program's result in the streamed NDJSON output: exactly
// one line per input program, emitted in input order. Schema-versioned;
// see RecordSchema.
type Record struct {
	Schema    int           `json:"schema"`
	Index     int           `json:"index"`
	Program   string        `json:"program"`
	ExitClass string        `json:"exit_class"`
	RaceCount int           `json:"race_count"`
	Races     []RaceEntry   `json:"races,omitempty"`
	TimedOut  bool          `json:"timed_out,omitempty"` // pair budget tripped: races are a lower bound
	Error     string        `json:"error,omitempty"`
	WallNS    int64         `json:"wall_ns"`
	Stats     *PhaseStats   `json:"stats,omitempty"`
	RunStats  *obs.RunStats `json:"run_stats,omitempty"` // full observability report (opt-in)
	// RequestID correlates server-streamed records with the originating
	// HTTP request (honored or minted X-Request-ID); empty for local
	// streams.
	RequestID string `json:"request_id,omitempty"`
}

// NewRecord projects one streamed program outcome onto its wire record.
func NewRecord(cr o2.CorpusResult) *Record {
	rec := &Record{
		Schema:  RecordSchema,
		Index:   cr.Index,
		Program: cr.Name,
		WallNS:  int64(cr.Wall),
	}
	if cr.Err != nil {
		rec.Error = cr.Err.Error()
		rec.ExitClass = ClassOf(cr.Err, 0)
		return rec
	}
	res := cr.Result
	races := res.Races()
	rec.RaceCount = len(races)
	rec.ExitClass = ClassOf(nil, len(races))
	rec.TimedOut = res.Report.TimedOut
	rec.Stats = &PhaseStats{
		PTANS:    int64(res.PTATime),
		OSANS:    int64(res.OSATime),
		SHBNS:    int64(res.SHBTime),
		DetectNS: int64(res.DetectTime),
		TotalNS:  int64(res.TotalTime()),
	}
	rec.RunStats = res.RunStats
	for i := range races {
		r := &races[i]
		mk := func(write bool, pos, fn string, origin string) Access {
			op := "read"
			if write {
				op = "write"
			}
			return Access{Op: op, Pos: pos, Fn: fn, Origin: origin}
		}
		rec.Races = append(rec.Races, RaceEntry{
			Location: r.Key.String(),
			A:        mk(r.A.Write, r.A.Pos.String(), r.A.Fn, res.Analysis.Origins.Get(r.A.Origin).String()),
			B:        mk(r.B.Write, r.B.Pos.String(), r.B.Fn, res.Analysis.Origins.Get(r.B.Origin).String()),
		})
	}
	return rec
}

// Summary is the optional terminal NDJSON line of a stream (the HTTP
// /batch endpoint always appends one, since an HTTP response has no exit
// code): totals plus the stream-level error, distinguished from per-
// program records by the summary flag.
type Summary struct {
	Schema    int    `json:"schema"`
	IsSummary bool   `json:"summary"`
	Programs  int    `json:"programs"`
	Failed    int    `json:"failed"`
	Races     int    `json:"races"`
	WallNS    int64  `json:"wall_ns"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// ProgressRecord is a periodic progress line interleaved into a streamed
// batch (schema-tagged with "progress": true so consumers filtering for
// result records can skip it). Index/Program identify the most recently
// completed input; Done counts completed programs so far. For job-level
// event streams (GET /jobs/{id}/events) the same shape carries the
// per-job phase snapshot instead, with Total == 0.
type ProgressRecord struct {
	Schema     int     `json:"schema"`
	IsProgress bool    `json:"progress"`
	Done       int     `json:"done"`
	Total      int     `json:"total,omitempty"`
	Index      int     `json:"index,omitempty"`
	Program    string  `json:"program,omitempty"`
	Phase      string  `json:"phase,omitempty"`
	Percent    float64 `json:"percent"`
	PairsDone  int64   `json:"pairs_done,omitempty"`
	PairsTotal int64   `json:"pairs_total,omitempty"`
	Races      int64   `json:"races"`
	WallNS     int64   `json:"wall_ns"`
	RequestID  string  `json:"request_id,omitempty"`
}

// NewProgress projects a live progress snapshot onto the wire record.
func NewProgress(snap obs.ProgressSnapshot) *ProgressRecord {
	return &ProgressRecord{
		Schema:     RecordSchema,
		IsProgress: true,
		Phase:      snap.Phase,
		Percent:    snap.Percent,
		PairsDone:  snap.PairsDone,
		PairsTotal: snap.PairsTotal,
		Races:      snap.Races,
	}
}

// NewSummary folds corpus stats (and a stream-level error, if any) into
// the terminal summary line.
func NewSummary(st *o2.CorpusStats, streamErr error) *Summary {
	s := &Summary{Schema: RecordSchema, IsSummary: true}
	if st != nil {
		s.Programs = st.Programs
		s.Failed = st.Failed
		s.Races = st.Races
		s.WallNS = int64(st.Wall)
	}
	if streamErr != nil {
		s.Error = streamErr.Error()
	}
	return s
}

// Writer emits NDJSON: one compact JSON value per line. It is not safe
// for concurrent use — the corpus pipeline emits from one goroutine by
// construction.
type Writer struct {
	enc *json.Encoder
}

// NewWriter wraps w. Each Write lands as exactly one line; pair with an
// http.Flusher (or a line-buffered writer) for live streaming.
func NewWriter(w io.Writer) *Writer { return &Writer{enc: json.NewEncoder(w)} }

// Write emits one value (a *Record or *Summary) as one NDJSON line.
func (w *Writer) Write(v any) error { return w.enc.Encode(v) }
