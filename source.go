package o2

import (
	"context"
	"errors"
	"fmt"

	"o2/internal/lang"
)

// Source is one named minilang input: the typed unit of work every
// frontend — `o2 analyze`, the batch scheduler, the HTTP service and the
// streaming corpus pipeline — consumes. Name doubles as the position
// filename in reports; Bytes is the program text.
type Source struct {
	// Name identifies the source (a path, zip entry or manifest name) and
	// is the filename reported in race positions.
	Name string
	// Bytes is the minilang source text.
	Bytes []byte
}

// String returns the source name.
func (s Source) String() string { return s.Name }

// SourceIter is a pull iterator over a stream of sources. Next returns
// the next source, ok=false at end of stream, or an error (which
// terminates the stream). Implementations need not be safe for concurrent
// use: AnalyzeCorpus pulls from a single dispatcher goroutine.
type SourceIter interface {
	Next() (src Source, ok bool, err error)
}

// sliceIter iterates over an in-memory slice of sources.
type sliceIter struct {
	srcs []Source
	i    int
}

func (it *sliceIter) Next() (Source, bool, error) {
	if it.i >= len(it.srcs) {
		return Source{}, false, nil
	}
	s := it.srcs[it.i]
	it.i++
	return s, true, nil
}

// SliceSources returns an iterator over an in-memory slice — the
// convenience adapter for small corpora and tests. Large corpora should
// stream from internal/corpus discovery instead of materializing.
func SliceSources(srcs []Source) SourceIter { return &sliceIter{srcs: srcs} }

// ErrCompile tags front-end failures (parse or lowering errors), so
// schedulers and CLIs can classify them as input errors without string
// matching (errors.Is(err, o2.ErrCompile)).
var ErrCompile = errors.New("compile error")

// AnalyzeSources compiles one program from the given sources (every
// source is one file of the same program) and analyzes it under ctx; it
// is the source-text entry point that `o2 analyze`, the batch scheduler
// and the corpus pipeline all route through. Compile
// failures are tagged ErrCompile so callers can classify them without
// string matching; duplicate source names are a compile failure.
func AnalyzeSources(ctx context.Context, sources []Source, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	files := make(map[string]string, len(sources))
	for _, s := range sources {
		if _, dup := files[s.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate source %q", ErrCompile, s.Name)
		}
		files[s.Name] = string(s.Bytes)
	}
	prog, err := lang.CompileFiles(files, cfg.Entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	return Analyze(ctx, prog, cfg)
}
