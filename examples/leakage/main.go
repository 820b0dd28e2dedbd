// Leakage: when does the paper's "stretch the work out" optimum stop
// being the right operating mode? With static (leakage) power and a sleep
// state — the combined model the paper's conclusion points to — racing at
// a fixed frequency and sleeping can win. This example sweeps the leakage
// level and prints the crossover.
//
//	go run ./examples/leakage
package main

import (
	"fmt"
	"log"

	"mpss"
)

func main() {
	in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{
		N: 16, M: 2, Seed: 12, Horizon: 80,
	})
	if err != nil {
		log.Fatal(err)
	}
	p := mpss.MustAlpha(3)

	optRes, err := mpss.OptimalSchedule(in)
	if err != nil {
		log.Fatal(err)
	}
	minCap, err := mpss.MinFeasibleCap(in, 0)
	if err != nil {
		log.Fatal(err)
	}
	race, err := mpss.ScheduleAtCap(in, minCap*2)
	if err != nil {
		log.Fatal(err)
	}
	start, end := in.Horizon()
	capPower := p.Power(minCap)

	fmt.Println("stretch (paper's optimum) vs race-to-sleep, P(s)=s^3 + leakage")
	fmt.Printf("minimum feasible frequency %.3f; race runs at %.3f\n\n", minCap, 2*minCap)
	fmt.Printf("%-22s %14s %14s %8s\n", "idle power", "stretch energy", "race energy", "winner")
	for _, frac := range []float64{0, 0.25, 0.5, 1, 2, 4, 8, 16} {
		model := mpss.SleepModel{
			IdlePower: frac * capPower,
			WakeCost:  0.05 * capPower,
		}
		bS, err := mpss.EvaluateWithSleep(optRes.Schedule, p, model, start, end)
		if err != nil {
			log.Fatal(err)
		}
		bR, err := mpss.EvaluateWithSleep(race, p, model, start, end)
		if err != nil {
			log.Fatal(err)
		}
		winner := "stretch"
		if bR.Total < bS.Total {
			winner = "race"
		}
		fmt.Printf("%6.2f x P(minCap)     %14.2f %14.2f %8s\n", frac, bS.Total, bR.Total, winner)
	}

	fmt.Println("\nwithout leakage, slowing down is provably optimal (Theorem 1);")
	fmt.Println("with heavy leakage the sleep state flips the answer — the open")
	fmt.Println("combined problem from the paper's conclusion.")
}
