package main

// Example runs the relatedmachines example and pins its whole output.
func Example() {
	main()
	// Output:
	// related machines: job sizes [8 5 4 2] agent costs [2 1 3]
	//
	// 1. searching for a monotonicity violation in the OPTIMAL allocation...
	//    witness: sizes=[1 4 3] others=[1 3 3] — agent 0: bid 3 -> work 1, but bid 4 -> work 3
	//    => raising the bid GAINED work; Archer-Tardos: not truthfully implementable
	//
	// 2. FastestMachine + Myerson payments:
	//    agent 1 (cost 2): work  0, payment  0, utility  0
	//    agent 2 (cost 1): work 19, payment 19, utility  0
	//    agent 3 (cost 3): work  0, payment  0, utility  0
	//    exhaustive misreport search: best gain = 0 (witness []) — truthful
	//
	// 3. the price of truthfulness (identical machines, equal jobs):
	//    FastestMachine  makespan 20
	//    LPTGreedy       makespan 5
	//    => the truthful rule is n times worse here; the Archer-Tardos
	//       randomized 3-approximation (and Kovacs's deterministic 2.8) close this gap.
}
