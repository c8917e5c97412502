package main

// Example runs the gridmarket example and pins its whole output.
func Example() {
	main()
	// Output:
	// grid market: 8 organizations, 12 jobs
	//
	// job allocation (distributed Vickrey auctions):
	//   job 1  -> org 1 at clearing price 2 (winning bid 1)
	//   job 2  -> org 1 at clearing price 2 (winning bid 2)
	//   job 3  -> org 1 at clearing price 2 (winning bid 2)
	//   job 4  -> org 1 at clearing price 2 (winning bid 2)
	//   job 5  -> org 2 at clearing price 2 (winning bid 1)
	//   job 6  -> org 1 at clearing price 2 (winning bid 1)
	//   job 7  -> org 2 at clearing price 2 (winning bid 1)
	//   job 8  -> org 2 at clearing price 2 (winning bid 1)
	//   job 9  -> org 1 at clearing price 2 (winning bid 2)
	//   job 10 -> org 2 at clearing price 2 (winning bid 1)
	//   job 11 -> org 2 at clearing price 2 (winning bid 1)
	//   job 12 -> org 1 at clearing price 1 (winning bid 1)
	//
	// organization ledger:
	//   org 1 (speed class 1):  7 jobs, 11 compute-hours, revenue 13, profit  2
	//   org 2 (speed class 1):  5 jobs,  5 compute-hours, revenue 10, profit  5
	//   org 3 (speed class 2):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//   org 4 (speed class 2):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//   org 5 (speed class 3):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//   org 6 (speed class 3):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//   org 7 (speed class 4):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//   org 8 (speed class 5):  0 jobs,  0 compute-hours, revenue  0, profit  0
	//
	// schedule quality:
	//   DMW/MinWork makespan:   11 (total work 16)
	//   greedy list-scheduling: 5 (total work 22)
	//   makespan lower bound:   2 (ratio <= 5.50, bound n = 8)
	//
	// communication: 2940 messages across 12 parallel auctions
}
