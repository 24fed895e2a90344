// Package faultprop is a Go reproduction of "Understanding the Propagation
// of Transient Errors in HPC Applications" (Ashraf et al., SC '15): a fault
// propagation framework that injects single-bit flips into live registers
// of running MPI applications (LLFI++), tracks exactly which memory
// locations the fault contaminates through a dual-chain compiler
// transformation plus runtime checker (FPM), follows contamination across
// process boundaries through message piggyback headers, classifies outcomes
// (Vanished / ONA / WO / PEX / Crashed), and fits linear fault-propagation
// models whose slope is the application's fault propagation speed (FPS).
//
// The package is a facade over the implementation packages:
//
//	internal/ir         the compiler IR applications are written in
//	internal/transform  the FPM instrumentation pass (paper Fig. 3)
//	internal/vm         the interpreter and runtime checker
//	internal/inject     LLFI++ fault planning and bit flips
//	internal/fpm        contamination tables and message headers (Fig. 4)
//	internal/mpi        the in-process message-passing runtime
//	internal/apps       the five proxy applications of the evaluation
//	internal/core       the per-experiment analysis pipeline
//	internal/harness    campaigns, sharding/merging, the paper's figures/tables
//	internal/model      propagation models, FPS, rollback estimators (§5)
//	internal/service    faultpropd: the campaign daemon + shard coordinator,
//	                    and the typed /v1 HTTP client both are reached through
//
// Quick start:
//
//	app := faultprop.AppByName("LULESH")
//	prog, _ := app.Build(app.TestParams())
//	an, _ := faultprop.NewAnalyzer(prog, app.TestParams().Ranks)
//	plan, _ := an.PlanUniform(xrand.New(1))
//	outcome := an.Analyze(plan)
//
// or run a whole campaign with RunCampaign and render the paper's exhibits
// with the Format* helpers.
package faultprop

import (
	"context"

	"repro/internal/apps"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/transform"
)

// Re-exported types. These aliases are the stable public surface; the
// internal packages carry the implementation detail.
type (
	// Program is an IR program authored with NewProgramBuilder.
	Program = ir.Program
	// ProgramBuilder assembles IR programs.
	ProgramBuilder = ir.Builder
	// App is one proxy application of the paper's evaluation.
	App = apps.App
	// Params sizes an application run.
	Params = apps.Params
	// Outcome is the experiment classification (V/ONA/WO/PEX/C).
	Outcome = classify.Outcome
	// Analyzer runs and classifies individual injection experiments.
	Analyzer = core.Analyzer
	// Plan is a set of planned bit flips.
	Plan = inject.Plan
	// Fault is one planned bit flip.
	Fault = inject.Fault
	// AppModel is the per-application propagation model (Table 2).
	AppModel = model.AppModel
	// CampaignConfig parameterizes a statistical injection campaign.
	CampaignConfig = harness.CampaignConfig
	// Sampling is the statistical section of a CampaignConfig: budget,
	// seed, fault model, and the adaptive stopping policy (TargetCI).
	Sampling = harness.Sampling
	// Execution groups a CampaignConfig's scheduling knobs (workers,
	// snapshots, hang budget, trace sampling).
	Execution = harness.Execution
	// Retention bounds what a campaign's aggregate keeps.
	Retention = harness.Retention
	// Persistence groups a CampaignConfig's checkpoint-journal settings.
	Persistence = harness.Persistence
	// StratumReport is one row of a stratified campaign's per-stratum
	// vulnerability table (CampaignResult.Strata).
	StratumReport = harness.StratumReport
	// CampaignResult aggregates a campaign.
	CampaignResult = harness.CampaignResult
	// ShardSpec is one fingerprint-guarded slice [From,To) of a campaign's
	// experiment IDs, produced by PlanShards.
	ShardSpec = harness.ShardSpec
	// PartialResult is the mergeable aggregate of one shard; merge with
	// MergePartials and finalize into a CampaignResult byte-identical to
	// an unsharded run.
	PartialResult = harness.PartialResult
	// FieldError is a typed CampaignConfig.Validate violation.
	FieldError = harness.FieldError
	// JobSpec is a campaign submission to a faultpropd daemon.
	JobSpec = service.JobSpec
	// JobStatus is the daemon-side record of one submitted campaign.
	JobStatus = service.JobStatus
	// ServiceClient is the typed HTTP client for faultpropd's /v1 API.
	ServiceClient = service.Client
)

// Sentinel errors of the campaign and service layers, re-exported so
// external callers never import internal/... paths.
var (
	// ErrInterrupted wraps errors returned by cancelled campaigns.
	ErrInterrupted = harness.ErrInterrupted
	// ErrFingerprintMismatch: a shard, journal, or partial belongs to a
	// different campaign configuration.
	ErrFingerprintMismatch = harness.ErrFingerprintMismatch
	// ErrShardOverlap: merged partials cover overlapping experiment IDs.
	ErrShardOverlap = harness.ErrShardOverlap
	// ErrIncompleteCampaign: a merged result does not cover [0, Runs).
	ErrIncompleteCampaign = harness.ErrIncompleteCampaign
	// ErrJobNotFound: a daemon call named an unknown job.
	ErrJobNotFound = service.ErrJobNotFound
	// ErrQueueFull: the daemon's bounded queue rejected a submission.
	ErrQueueFull = service.ErrQueueFull
)

// Outcome classes (paper §2).
const (
	Vanished           = classify.Vanished
	OutputNotAffected  = classify.OutputNotAffected
	WrongOutput        = classify.WrongOutput
	ProlongedExecution = classify.ProlongedExecution
	Crashed            = classify.Crashed
)

// NominalHz converts virtual cycles to seconds in FPS units.
const NominalHz = model.NominalHz

// NewProgramBuilder returns an empty IR program builder.
func NewProgramBuilder() *ProgramBuilder { return ir.NewBuilder() }

// Apps returns the five proxy applications in the paper's order.
func Apps() []App { return apps.All() }

// AppByName returns the proxy for the given paper application name
// (LULESH, LAMMPS, miniFE, AMG2013, MCB), or nil.
func AppByName(name string) App { return apps.ByName(name) }

// Instrument applies the FPM pass (paper Fig. 3) with default options.
func Instrument(prog *Program) (*Program, error) {
	return transform.Instrument(prog, transform.DefaultOptions())
}

// NewAnalyzer instruments prog and establishes the fault-free baseline.
func NewAnalyzer(prog *Program, ranks int) (*Analyzer, error) {
	return core.NewAnalyzer(prog, ranks, transform.DefaultOptions())
}

// RunCampaign executes a statistical fault-injection campaign.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return harness.RunCampaign(cfg)
}

// RunCampaignContext is RunCampaign with cancellation: a cancelled campaign
// journals its finished experiments (when cfg.Checkpoint is set) and
// returns an error wrapping ErrInterrupted.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return harness.RunCampaignContext(ctx, cfg)
}

// PlanShards carves cfg's [0, Runs) experiment IDs into n contiguous,
// fingerprint-guarded shard specs. Each shard runs independently (the
// position-addressable RNG needs no coordination) and MergePartials
// reassembles the whole campaign.
func PlanShards(cfg CampaignConfig, n int) ([]ShardSpec, error) {
	return harness.PlanShards(cfg, n)
}

// RunShard executes one shard of a campaign and returns its mergeable
// partial aggregate.
func RunShard(cfg CampaignConfig, spec ShardSpec) (*PartialResult, error) {
	return harness.RunShard(cfg, spec)
}

// RunShardContext is RunShard with cancellation.
func RunShardContext(ctx context.Context, cfg CampaignConfig, spec ShardSpec) (*PartialResult, error) {
	return harness.RunShardContext(ctx, cfg, spec)
}

// MergePartials merges shard partials (any order) and finalizes them into
// a CampaignResult byte-identical to running the campaign unsharded.
func MergePartials(parts ...*PartialResult) (*CampaignResult, error) {
	return harness.MergePartials(parts...)
}

// NewServiceClient returns a typed client for the faultpropd daemon at
// base (host:port or URL), speaking the versioned /v1 API.
func NewServiceClient(base string) (*ServiceClient, error) {
	return service.NewClient(base)
}
