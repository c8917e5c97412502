package main

// Example runs the quickstart example and pins its whole output.
func Example() {
	main()
	// Output:
	// distributed auction results:
	//   task 1 -> machine A1 (lowest bid 1, pays second price 2)
	//   task 2 -> machine A2 (lowest bid 1, pays second price 2)
	//   task 3 -> machine A4 (lowest bid 1, pays second price 2)
	//
	// payments issued by the payment infrastructure:
	//   A1 receives 2 (utility 1)
	//   A2 receives 2 (utility 1)
	//   A4 receives 2 (utility 1)
	//
	// matches centralized MinWork: true
	// communication used: 420 messages, 40673 bytes (no trusted center involved)
}
