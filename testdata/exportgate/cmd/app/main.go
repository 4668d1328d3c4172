package main

import (
	"fmt"
	"io"

	"fixture/internal/lib"
)

func main() {
	b, _ := io.ReadAll(lib.NewStream("*x"))
	fmt.Println(lib.KindOf(string(b)))
	var o lib.Options
	o.Indexed[1]++
	fmt.Println(o.Never, o.Indexed, o.Tagged, lib.Pair{1, 2})
}
