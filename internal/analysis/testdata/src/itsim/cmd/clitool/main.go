// Command clitool is a fixture for a package OUTSIDE the deterministic set:
// wall clocks, the global rand source, environment reads, map iteration and
// literal seeds are all fine here — but an //itslint:allow directive
// without a reason is still reported, because directive hygiene is
// validated everywhere.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

func main() {
	start := time.Now()
	fmt.Println(os.Getenv("HOME"), rand.Intn(10), time.Since(start), rand.New(rand.NewSource(42)).Intn(10))
	m := map[string]int{"a": 1, "b": 2}
	total := 0
	for _, v := range m {
		total += v
	}
	//itslint:allow
	fmt.Println(total)
}
