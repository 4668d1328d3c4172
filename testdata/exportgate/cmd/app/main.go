package main

import (
	"fmt"
	"io"

	"fixture/internal/lib"
)

func main() {
	b, _ := io.ReadAll(lib.NewStream("*x"))
	fmt.Println(lib.KindOf(string(b)))
}
