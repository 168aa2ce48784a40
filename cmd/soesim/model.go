package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"soemt/internal/experiments"
	"soemt/internal/model"
	"soemt/internal/sim"
	"soemt/internal/stats"
)

// loadOrProfileCalibration resolves the analytical model's parameter
// table: a fitted file when -calibration is given, otherwise the
// profile-derived fallback (wide error bars, no simulation behind it).
func loadOrProfileCalibration(path string) (*model.Calibration, error) {
	if path != "" {
		return model.LoadCalibration(path)
	}
	return experiments.ProfileCalibration(sim.DefaultMachine())
}

// runModel is the -model escape hatch: answer from the calibrated
// analytical model in microseconds instead of simulating. Honors
// -threads, -F, -timeshare and -json; reports the calibration's error
// bars alongside every prediction.
func runModel(threadsArg string, f, timeshare float64, calPath string, jsonOut bool) error {
	if threadsArg == "" {
		return fmt.Errorf("-model needs -threads (profile names; traces carry no fitted parameters)")
	}
	names := strings.Split(threadsArg, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	cal, err := loadOrProfileCalibration(calPath)
	if err != nil {
		return err
	}
	sys, err := cal.System(names...)
	if err != nil {
		return err
	}
	p, err := sys.Predict(f)
	if err != nil {
		return err
	}
	var tsFair float64
	var tsSp []float64
	if timeshare > 0 {
		if tsFair, tsSp, err = sys.TimeShareFairness(timeshare); err != nil {
			return err
		}
	}

	if jsonOut {
		out := map[string]any{
			"fidelity":     "analytical",
			"calibration":  cal.Source,
			"f":            f,
			"ipc_total":    p.Total,
			"fairness":     p.Fairness,
			"err_ipc_pc":   cal.ErrIPCPc,
			"err_fairness": cal.ErrFairness,
		}
		var threads []map[string]any
		for i, n := range names {
			threads = append(threads, map[string]any{
				"name": n, "ipc": p.IPCSOE[i], "ipc_st": p.IPCST[i], "speedup": p.Speedup[i],
			})
		}
		out["threads"] = threads
		if timeshare > 0 {
			out["timeshare_fairness"] = tsFair
			out["timeshare_speedups"] = tsSp
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("analytical model (calibration: %s, bars: ±%.1f%% IPC, ±%.2f fairness)\n",
		cal.Source, cal.ErrIPCPc, cal.ErrFairness)
	t := stats.NewTable("thread", "IPM", "IPC_nomiss", "IPC_ST", "IPC_SOE", "speedup")
	for i, th := range sys.Threads {
		t.AddRow(th.Name,
			fmt.Sprintf("%.0f", th.IPM),
			fmt.Sprintf("%.3f", th.IPCNoMiss),
			fmt.Sprintf("%.3f", p.IPCST[i]),
			fmt.Sprintf("%.3f", p.IPCSOE[i]),
			fmt.Sprintf("%.3f", p.Speedup[i]))
	}
	t.WriteTo(os.Stdout)
	fmt.Printf("F=%g: total IPC %.3f ± %.1f%%   fairness %.3f ± %.2f\n",
		f, p.Total, cal.ErrIPCPc, p.Fairness, cal.ErrFairness)
	if timeshare > 0 {
		fmt.Printf("time share (%.0f-cycle quota): speedups %s, fairness %.3f\n",
			timeshare, fmtFloats(tsSp), tsFair)
	}
	return nil
}

// runCalibrate fits a calibration table against the cycle-accurate
// engine (-calibrate out.json): single-thread references invert Eq. 1
// per profile, Switch_lat is grid-searched, and the residual error bars
// are measured by replaying the chosen pairs. With -threads a,b only
// that pair is replayed; without it the full 16-pair matrix runs.
func runCalibrate(out, threadsArg, scaleArg string) error {
	scale, err := sim.ScaleByName(scaleArg)
	if err != nil {
		return err
	}
	var pairs []experiments.Pair
	if threadsArg != "" {
		names := strings.Split(threadsArg, ",")
		if len(names) != 2 {
			return fmt.Errorf("-calibrate with -threads needs exactly two profiles, got %d", len(names))
		}
		pairs = []experiments.Pair{{A: strings.TrimSpace(names[0]), B: strings.TrimSpace(names[1])}}
	}
	r := experiments.NewRunner(experiments.Options{
		Machine:    sim.DefaultMachine(),
		Scale:      scale,
		SameOffset: 100_000,
	})
	r.Progress = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "soesim: "+format+"\n", args...)
	}
	cal, err := experiments.Calibrate(context.Background(), r, pairs)
	if err != nil {
		return err
	}
	if err := cal.Save(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"soesim: wrote %s (%d threads, %d residual points, SwitchLat=%.0f, bars ±%.1f%% IPC / ±%.2f fairness)\n",
		out, len(cal.Threads), len(cal.Pairs), cal.SwitchLat, cal.ErrIPCPc, cal.ErrFairness)
	return nil
}

func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
