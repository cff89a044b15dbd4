// Package exhelp is the shared glue for the runnable examples: one
// helper that drives the analysis pipeline and exits on error, so every
// example declares only its workload parameters and the paper-specific
// inspection it demonstrates.
package exhelp

import (
	"log"

	"perfplay/internal/core"
	"perfplay/internal/pipeline"
	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// Analyze runs the pipeline on a request, exiting the example on error.
func Analyze(req pipeline.Request) *pipeline.Result {
	res, err := pipeline.Run(req)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// AnalyzeApp analyzes one registered workload.
func AnalyzeApp(app string, cfg workload.Config) *core.Analysis {
	return Analyze(pipeline.Request{
		App:     app,
		Threads: cfg.Threads,
		Input:   cfg.Input,
		Scale:   cfg.Scale,
		Seed:    cfg.Seed,
	}).Analysis
}

// AnalyzeProgram analyzes a hand-built simulator program.
func AnalyzeProgram(p *sim.Program, seed int64) *core.Analysis {
	return Analyze(pipeline.Request{Program: p, Seed: seed}).Analysis
}

// AnalyzeAppRaces is AnalyzeApp with the happens-before detector on.
func AnalyzeAppRaces(app string, cfg workload.Config) *core.Analysis {
	return Analyze(pipeline.Request{
		App:         app,
		Threads:     cfg.Threads,
		Input:       cfg.Input,
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		DetectRaces: true,
	}).Analysis
}
