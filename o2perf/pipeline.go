package main

import (
	"context"
	"fmt"

	"o2"
	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/report"
	"o2/internal/shb"
)

// analysis is one program's pipeline output.
type analysis struct {
	a       *pta.Analysis
	sharing *osa.Result
	g       *shb.Graph
	rep     *race.Report
}

// compileLayer compiles one source file through the lang layer.
func compileLayer(src o2.Source, cfg o2.Config, t *tracer) (*ir.Program, error) {
	var prog *ir.Program
	var err error
	files := map[string]string{src.Name: string(src.Bytes)}
	t.call("lang", func() { prog, err = lang.CompileFiles(files, cfg.Entries) })
	if err != nil {
		return nil, fmt.Errorf("%w: %v", o2.ErrCompile, err)
	}
	return prog, nil
}

// analyzeLayers runs the calls o2.Analyze makes — pta.New and SolveCtx,
// osa.AnalyzeCtx, shb.BuildCtx, race.DetectCtx — one by one, so that t
// can time each layer from outside. cfg must be o2.DefaultConfig with at
// most Workers, Android and ReplicateEvents changed; the self-tests check
// that the race sets equal o2.Analyze's.
func analyzeLayers(ctx context.Context, prog *ir.Program, cfg o2.Config, t *tracer) (*analysis, error) {
	det := cfg.Detector
	if cfg.Workers != 0 {
		det.Workers = cfg.Workers
	}
	r := &analysis{}
	var err error
	t.call("pta", func() {
		r.a = pta.New(prog, pta.Config{Policy: cfg.Policy, Entries: cfg.Entries, ReplicateEvents: cfg.ReplicateEvents})
		err = r.a.SolveCtx(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}
	t.call("osa", func() { r.sharing, err = osa.AnalyzeCtx(ctx, r.a, nil) })
	if err != nil {
		return nil, fmt.Errorf("osa: %w", err)
	}
	t.call("shb", func() { r.g, err = shb.BuildCtx(ctx, r.a, shb.Config{AndroidEvents: cfg.Android}) })
	if err != nil {
		return nil, fmt.Errorf("shb: %w", err)
	}
	t.call("race", func() { r.rep, err = race.DetectCtx(ctx, r.a, r.sharing, r.g, det) })
	if err != nil {
		return nil, fmt.Errorf("race: %w", err)
	}
	return r, nil
}

// count adds the analysis's work counts to c.
func (r *analysis) count(c *layerCounts) {
	c.programs++
	c.ptaSteps += r.a.Stats().Steps
	c.sharedLocs += int64(len(r.sharing.Shared))
	c.shbNodes += int64(len(r.g.Nodes))
	c.shbSegs += int64(len(r.g.Segs))
	c.pairs += r.rep.PairsChecked
	c.races += int64(len(r.rep.Races))
}

// canonical projects the race report onto its canonical key set.
func (r *analysis) canonical() []report.RaceKey {
	return report.Canonical(r.rep, r.a.Origins)
}
