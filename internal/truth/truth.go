// Package truth is the ground-truth oracle subsystem: a labeled corpus of
// minilang programs whose true races are known by construction, a scorer
// computing precision/recall/F1 of the analysis against those labels, and
// a metamorphic layer asserting that race-preserving program
// transformations leave the canonical race-report set invariant.
//
// The paper's headline claim is precision — an order of magnitude fewer
// false positives than SHB-only or lockset-only detection (§6, Tables
// 8–10) — and nothing in a performance gate can catch a precision
// regression. The corpus makes precision measurable: each program under
// corpus/ carries a .expect sidecar listing every true race as a
// canonical (location, line×line) key, labeled with the category of
// behavior it exercises (thread, event, mixed, array, figure patterns,
// the Table 10 false-positive categories, and known residual false
// positives). `o2 eval` and the bench gate score the tool against these
// labels; CI requires recall to stay 1.0 and precision to stay at or
// above the checked-in baseline.
package truth

import (
	"context"
	"embed"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"o2"
	"o2/internal/report"
)

//go:embed corpus
var corpusFS embed.FS

// baselineJSON is the checked-in precision baseline the CI gate compares
// against. Regenerate with `o2 eval -json > internal/truth/baseline.json`
// after a deliberate, reviewed precision change.
//
//go:embed baseline.json
var baselineJSON []byte

// Baseline returns the checked-in eval baseline.
func Baseline() (*EvalReport, error) { return ParseEval(baselineJSON) }

// Categories used by the corpus, in report order. A category groups
// programs by the behavior (or false-positive class) they exercise:
//
//	figure           the paper's Figure 1–3 motivating patterns
//	thread           plain multithreaded races
//	event            event-handler races (dispatch concurrency)
//	mixed            thread × event races
//	array            array-element races (the synthetic "*" field)
//	lock-protected   Table 10: accesses guarded by a common lock
//	join-ordered     Table 10: accesses ordered by start/join
//	origin-local     Table 10: per-origin data only OPA separates
//	event-serialized Table 10: handlers serialized by Android dispatch
//	known-fp         residual false positives the analysis is expected
//	                 to report (infeasible paths, unknown locks, value
//	                 protocols) — these programs keep the precision axis
//	                 honest
//	go-sync          Go-style message passing: channel send/recv/close,
//	                 select dispatch and WaitGroup barriers as HB edges,
//	                 including the racy misuse patterns from Uber's field
//	                 study (mutate-after-send, loop-variable capture,
//	                 mismatched Done/Wait)
var Categories = []string{
	"figure", "thread", "event", "mixed", "array",
	"lock-protected", "join-ordered", "origin-local", "event-serialized",
	"known-fp", "go-sync",
}

// Program is one labeled corpus entry.
type Program struct {
	// Name is the corpus file base name without extension.
	Name string
	// File is the source file name used for positions (Name + ".mini").
	File string
	// Source is the minilang text.
	Source string
	// Category labels the behavior the program exercises (see Categories).
	Category string
	// Android enables serialized event dispatch for this program.
	Android bool
	// Replicate treats event handlers as concurrently re-entrant.
	Replicate bool
	// Expected are the true races as canonical keys (identity fields only;
	// Pair is informational and never matched).
	Expected []report.RaceKey
}

// Config is the analysis configuration a corpus program is scored under:
// the paper's default O2 configuration plus the program's directives.
// Workers is pinned to 1 so eval runs are bit-deterministic end to end
// (the report itself is worker-count independent, but pinning keeps any
// future observability coupling out of the gate).
func (p *Program) Config() o2.Config {
	cfg := o2.DefaultConfig()
	cfg.Android = p.Android
	cfg.ReplicateEvents = p.Replicate
	cfg.Workers = 1
	return cfg
}

// Analyze runs the full pipeline on the program under its configuration.
func (p *Program) Analyze() (*o2.Result, error) {
	return o2.AnalyzeSources(context.Background(), []o2.Source{p.AsSource()}, p.Config())
}

// AsSource returns the program in the typed form the streaming frontends
// consume.
func (p *Program) AsSource() o2.Source {
	return o2.Source{Name: p.File, Bytes: []byte(p.Source)}
}

// ActualKeys analyzes the program and returns the canonical race keys.
func (p *Program) ActualKeys() ([]report.RaceKey, error) {
	res, err := p.Analyze()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return report.Canonical(res.Report, res.Analysis.Origins), nil
}

// Corpus loads the embedded oracle corpus, sorted by program name. Every
// .mini file must have a .expect sidecar and vice versa.
func Corpus() ([]Program, error) {
	entries, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, fmt.Errorf("truth: reading corpus: %w", err)
	}
	var names []string
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".mini"):
			names = append(names, strings.TrimSuffix(name, ".mini"))
		case strings.HasSuffix(name, ".expect"):
			seen[strings.TrimSuffix(name, ".expect")] = true
		default:
			return nil, fmt.Errorf("truth: unexpected corpus file %q", name)
		}
	}
	sort.Strings(names)
	var out []Program
	for _, name := range names {
		if !seen[name] {
			return nil, fmt.Errorf("truth: %s.mini has no .expect sidecar", name)
		}
		delete(seen, name)
		src, err := corpusFS.ReadFile("corpus/" + name + ".mini")
		if err != nil {
			return nil, err
		}
		exp, err := corpusFS.ReadFile("corpus/" + name + ".expect")
		if err != nil {
			return nil, err
		}
		p, err := parseExpect(name, string(exp))
		if err != nil {
			return nil, err
		}
		p.Source = string(src)
		out = append(out, p)
	}
	for name := range seen {
		return nil, fmt.Errorf("truth: %s.expect has no .mini source", name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("truth: corpus is empty")
	}
	return out, nil
}

// parseExpect parses a .expect sidecar:
//
//	# comments and blank lines are ignored
//	category: thread              (required, one of Categories)
//	android: true                 (optional directive)
//	replicate: true               (optional directive)
//	race <loc> @ <line> <line>    (one per true race; lines in the .mini
//	                               file, any order — keys are normalized)
//
// <loc> is the canonical location name: an instance field name, a
// "Class.field" static signature, or "*" for array elements.
func parseExpect(name, text string) (Program, error) {
	p := Program{Name: name, File: name + ".mini"}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("%s.expect:%d: %s", name, i+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "category:"):
			p.Category = strings.TrimSpace(strings.TrimPrefix(line, "category:"))
			if !validCategory(p.Category) {
				return p, errf("unknown category %q", p.Category)
			}
		case strings.HasPrefix(line, "android:"):
			v, err := strconv.ParseBool(strings.TrimSpace(strings.TrimPrefix(line, "android:")))
			if err != nil {
				return p, errf("bad android directive: %v", err)
			}
			p.Android = v
		case strings.HasPrefix(line, "replicate:"):
			v, err := strconv.ParseBool(strings.TrimSpace(strings.TrimPrefix(line, "replicate:")))
			if err != nil {
				return p, errf("bad replicate directive: %v", err)
			}
			p.Replicate = v
		case strings.HasPrefix(line, "race "):
			key, err := parseRaceLine(p.File, strings.TrimPrefix(line, "race "))
			if err != nil {
				return p, errf("%v", err)
			}
			p.Expected = append(p.Expected, key)
		default:
			return p, errf("unrecognized line %q", line)
		}
	}
	if p.Category == "" {
		return p, fmt.Errorf("%s.expect: missing category directive", name)
	}
	p.Expected = report.Normalize(p.Expected)
	return p, nil
}

// parseRaceLine parses "<loc> @ <line> <line>".
func parseRaceLine(file, s string) (report.RaceKey, error) {
	var k report.RaceKey
	parts := strings.Fields(s)
	if len(parts) != 4 || parts[1] != "@" {
		return k, fmt.Errorf("want %q, got %q", "race <loc> @ <line> <line>", "race "+s)
	}
	l1, err1 := strconv.Atoi(parts[2])
	l2, err2 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || l1 <= 0 || l2 <= 0 {
		return k, fmt.Errorf("bad line pair %q %q", parts[2], parts[3])
	}
	return report.RaceKey{Loc: parts[0], AFile: file, ALine: l1, BFile: file, BLine: l2}, nil
}

func validCategory(c string) bool {
	for _, k := range Categories {
		if k == c {
			return true
		}
	}
	return false
}
