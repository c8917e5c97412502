package main

// Example runs the faulttolerance example and pins its whole output.
func Example() {
	main()
	// Output:
	// baseline (all honest):
	//   task 1: -> agent 1 at price 2
	//   task 2: -> agent 2 at price 2
	//   utilities: [1 1 0 0 0 0]
	//
	// scenario: agent 3 crashes (fail-stop)
	//   task 1: ABORTED (missing commitments from agent 2)
	//   task 2: ABORTED (missing commitments from agent 2)
	//   utilities: [0 0 0 0 0 0]
	//   strong voluntary participation held (no honest loss): true
	//   deviator utility 0 vs honest-run 0 (faithfulness: no gain)
	//
	// scenario: agent 2 sends corrupted shares
	//   task 1: ABORTED (share from agent 1 inconsistent: commit: product commitment check failed (eq 7))
	//   task 2: ABORTED (share from agent 1 inconsistent: commit: product commitment check failed (eq 7))
	//   utilities: [0 0 0 0 0 0]
	//   strong voluntary participation held (no honest loss): true
	//   deviator utility 0 vs honest-run 1 (faithfulness: no gain)
	//
	// scenario: agent 5 publishes a bogus Lambda
	//   task 1: ABORTED (Lambda/Psi from agent 4 inconsistent: commit: published Lambda*Psi inconsistent with commitments (eq 11))
	//   task 2: ABORTED (Lambda/Psi from agent 4 inconsistent: commit: published Lambda*Psi inconsistent with commitments (eq 11))
	//   utilities: [0 0 0 0 0 0]
	//   strong voluntary participation held (no honest loss): true
	//   deviator utility 0 vs honest-run 0 (faithfulness: no gain)
	//
	// scenario: agent 1 withholds its winner disclosure
	//   task 1: -> agent 1 at price 2
	//   task 2: -> agent 2 at price 2
	//   utilities: [1 1 0 0 0 0]
	//   strong voluntary participation held (no honest loss): true
	//   deviator utility 1 vs honest-run 1 (faithfulness: no gain)
}
