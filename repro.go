// Package repro is a Go reproduction of "Characterization and
// Comparison of Cloud versus Grid Workloads" (Di, Kondo, Cirne —
// IEEE CLUSTER 2012).
//
// The library contains:
//
//   - calibrated synthetic workload generators for the Google cluster
//     trace and seven Grid/HPC systems (AuverGrid, NorduGrid, SHARCNET,
//     ANL, RICC, MetaCentrum, LLNL-Atlas, plus DAS-2),
//   - a discrete-event cluster simulator implementing the paper's
//     scheduling model (12 priorities, FCFS, preemption, failure and
//     resubmission, 5-minute usage sampling),
//   - the paper's statistical toolkit (CDFs, mass-count disparity,
//     Jain fairness, mean-filter noise, autocorrelation),
//   - trace-format codecs (Google clusterdata-v1 CSV, SWF/GWA), and
//   - one experiment per table and figure of the paper.
//
// This root package is the stable facade; the implementation lives in
// internal packages whose key types are re-exported as aliases below.
package repro

import (
	"context"

	"repro/internal/capacity"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/synth"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Core data-model aliases.
type (
	// Task is one schedulable unit of a job.
	Task = trace.Task
	// Job is a per-job summary used by the workload analyses.
	Job = trace.Job
	// Machine is one cluster host with normalised capacities.
	Machine = trace.Machine
	// TaskEvent is one scheduler event (submit/schedule/finish/...).
	TaskEvent = trace.TaskEvent
	// Trace bundles machines, jobs, tasks, events and usage samples.
	Trace = trace.Trace

	// ClusterConfig parameterises the simulator.
	ClusterConfig = cluster.Config
	// ClusterResult is the simulator output (events + machine series).
	ClusterResult = cluster.Result
	// MachineSeries is one machine's sampled load signals.
	MachineSeries = cluster.MachineSeries

	// GoogleConfig parameterises the Google workload model.
	GoogleConfig = synth.GoogleConfig
	// GridSystem is a parameterised Grid/HPC workload model.
	GridSystem = synth.GridSystem

	// ExperimentConfig scales the paper reproduction.
	ExperimentConfig = core.Config
	// ExperimentResult is one regenerated table/figure.
	ExperimentResult = core.Result
)

// GenerateGoogleWorkload generates the calibrated Google task stream
// at the paper's full submission rate (552 jobs/hour) over the horizon
// (seconds), along with the derived per-job summaries.
func GenerateGoogleWorkload(horizon int64, seed uint64) ([]Task, []Job) {
	cfg := synth.DefaultGoogleConfig(horizon)
	tasks := synth.GenerateGoogleTasks(cfg, rng.New(seed))
	return tasks, synth.GoogleJobsFromTasks(tasks)
}

// GenerateGridWorkload generates the job stream of the named Grid/HPC
// system ("AuverGrid", "NorduGrid", "SHARCNET", "ANL", "RICC",
// "MetaCentrum", "LLNL-Atlas" or "DAS-2") over the horizon (seconds).
func GenerateGridWorkload(system string, horizon int64, seed uint64) ([]Job, error) {
	sys, err := synth.SystemByName(system)
	if err != nil {
		return nil, err
	}
	return sys.Generate(horizon, rng.New(seed)), nil
}

// GridSystemNames lists the supported Grid/HPC systems in paper order.
func GridSystemNames() []string {
	names := make([]string, 0, len(synth.GridSystems)+1)
	for _, g := range synth.GridSystems {
		names = append(names, g.Name)
	}
	return append(names, synth.DAS2.Name)
}

// SimulateGoogleCluster builds a heterogeneous machine park of the
// given size, generates a utilisation-scaled Google workload and runs
// the full cluster simulation over the horizon (seconds). The result
// carries the event stream and usage samples as well as the machine
// series.
func SimulateGoogleCluster(machines int, horizon int64, seed uint64) (*ClusterResult, error) {
	s := rng.New(seed)
	park := synth.GoogleMachines(machines, s.Child("machines"))
	gcfg := synth.ScaledGoogleConfig(machines, horizon)
	tasks := synth.GenerateGoogleTasks(gcfg, s.Child("workload"))
	cfg := cluster.DefaultConfig(park, horizon)
	cfg.EmitTrace = true
	return cluster.Simulate(cfg, tasks, s.Child("sim"))
}

// Experiments lists the paper's tables and figures (fig2..fig13,
// table1..table3) as runnable experiments.
func Experiments() []core.Experiment { return core.Experiments() }

// RunExperiment regenerates one paper artifact by ID (e.g. "fig3",
// "table1") at the given scale.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	exp, err := core.Find(id)
	if err != nil {
		return nil, err
	}
	return exp.Run(core.NewContext(cfg))
}

// RunAllExperiments regenerates every table and figure, sharing one
// workload generation and one simulation across all of them.
func RunAllExperiments(cfg ExperimentConfig) ([]*ExperimentResult, error) {
	return core.RunAll(core.NewContext(cfg))
}

// RunAllExperimentsParallel is RunAllExperiments over a bounded worker
// pool (workers <= 0 means GOMAXPROCS). Results come back in registry
// order and are byte-identical to the serial run: every experiment
// draws from splittable (seed, label) random streams, so no experiment
// can observe how many neighbours run beside it.
func RunAllExperimentsParallel(cfg ExperimentConfig, workers int) ([]*ExperimentResult, error) {
	return core.RunExperiments(context.Background(), core.NewContext(cfg), core.Experiments(), core.RunOptions{Workers: workers})
}

// DefaultExperimentConfig is the full reproduction scale.
func DefaultExperimentConfig() ExperimentConfig { return core.DefaultConfig() }

// QuickExperimentConfig is a fast scale for demos and tests.
func QuickExperimentConfig() ExperimentConfig { return core.QuickConfig() }

// ExtensionExperiments lists the beyond-the-paper analyses
// (periodicity, best-fit prediction, grid queueing).
func ExtensionExperiments() []core.Experiment { return core.Extensions() }

// Further capability aliases: prediction, fitting, capacity planning
// and spectral analysis.
type (
	// Series is a regularly-sampled load signal.
	Series = timeseries.Series
	// Predictor forecasts the next sample of a load series.
	Predictor = predict.Predictor
	// PredictorEvaluation summarises one-step-ahead accuracy.
	PredictorEvaluation = predict.Evaluation
	// FittedModel is a parametric distribution fitted to a sample.
	FittedModel = fit.Model
	// ConsolidationPlan is a capacity-planning result.
	ConsolidationPlan = capacity.Plan
	// SpectralPeak describes a dominant periodic component.
	SpectralPeak = spectral.Peak
)

// StandardPredictors returns the host-load prediction suite
// (persistence, moving averages, exponential smoothing, AR(1), Markov
// levels).
func StandardPredictors() []Predictor { return predict.Standard() }

// BestPredictor selects the best-fit prediction method for a host
// population — the paper's stated future work.
func BestPredictor(series []*Series, warmup int) (Predictor, PredictorEvaluation) {
	return predict.Best(predict.Standard(), series, warmup)
}

// FitDistribution fits the standard parametric families to a sample
// and returns them ranked by Kolmogorov-Smirnov distance.
func FitDistribution(sample []float64) ([]FittedModel, error) {
	return fit.Fit(sample)
}

// PlanConsolidation computes the machines needed to pack the simulated
// cluster's load under the given utilisation ceilings.
func PlanConsolidation(res *ClusterResult, cpuCeiling, memCeiling float64) (ConsolidationPlan, error) {
	demand, err := capacity.ClusterDemand(res.Machines)
	if err != nil {
		return ConsolidationPlan{}, err
	}
	return capacity.MakePlan(demand, cpuCeiling, memCeiling)
}

// DominantPeriod finds the strongest periodic component of a load or
// submission-count series.
func DominantPeriod(s *Series) (SpectralPeak, error) {
	return spectral.DominantPeriod(s)
}
