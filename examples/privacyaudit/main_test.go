package main

// Example runs the privacyaudit example and pins its whole output.
func Example() {
	main()
	// Output:
	// auction parameters: n=10 agents, W=[1 2 3 4], c=2 (sigma=7)
	//
	// victim bids, and the smallest coalition that recovers each:
	//   bid   via e-poly (Thm 10)     via f-poly (side channel)
	//   1     7                       2
	//   2     6                       3
	//   3     5                       4
	//   4     4                       5
	//
	// empirical attack (one random victim per bid value):
	//   victim bidding 1:
	//     coalition of 1: nothing learned
	//     coalition of 2: bid RECOVERED via f-polynomial
	//     coalition of 3: bid RECOVERED via f-polynomial
	//     coalition of 4: bid RECOVERED via f-polynomial
	//     coalition of 5: bid RECOVERED via f-polynomial
	//     coalition of 6: bid RECOVERED via f-polynomial
	//     coalition of 7: bid RECOVERED via both polynomials
	//     coalition of 8: bid RECOVERED via both polynomials
	//   victim bidding 2:
	//     coalition of 1: nothing learned
	//     coalition of 2: nothing learned
	//     coalition of 3: bid RECOVERED via f-polynomial
	//     coalition of 4: bid RECOVERED via f-polynomial
	//     coalition of 5: bid RECOVERED via f-polynomial
	//     coalition of 6: bid RECOVERED via both polynomials
	//     coalition of 7: bid RECOVERED via both polynomials
	//     coalition of 8: bid RECOVERED via both polynomials
	//   victim bidding 3:
	//     coalition of 1: nothing learned
	//     coalition of 2: nothing learned
	//     coalition of 3: nothing learned
	//     coalition of 4: bid RECOVERED via f-polynomial
	//     coalition of 5: bid RECOVERED via both polynomials
	//     coalition of 6: bid RECOVERED via both polynomials
	//     coalition of 7: bid RECOVERED via both polynomials
	//     coalition of 8: bid RECOVERED via both polynomials
	//   victim bidding 4:
	//     coalition of 1: nothing learned
	//     coalition of 2: nothing learned
	//     coalition of 3: nothing learned
	//     coalition of 4: bid RECOVERED via e-polynomial
	//     coalition of 5: bid RECOVERED via both polynomials
	//     coalition of 6: bid RECOVERED via both polynomials
	//     coalition of 7: bid RECOVERED via both polynomials
	//     coalition of 8: bid RECOVERED via both polynomials
	//
	// conclusion: coalitions of size <= c = 2 never break the e-polynomial encoding (Theorem 10),
	// but low bids leak through the f-polynomials at size y+1 — an observed
	// limitation of the protocol this reproduction documents.
}
