#!/bin/sh
# Prints where the hot kernels sit in two builds of the bench binary: each
# kernel's `go tool nm -n` address and that address mod 64, side by side,
# and "moved" where the residues differ. A kernel whose residue moves runs
# its loop across different cache lines, which can shift a benchmark
# metric with no change to its code (docs/PERFORMANCE.md, "Hot-kernel
# addresses, recorded"). Report only: it exits 0 whatever moved.
#
#	go build -o /tmp/bench-base ./bench   # in the base checkout
#	go build -o /tmp/bench-head ./bench   # in the changed one
#	sh scripts/hotkernels.sh /tmp/bench-base /tmp/bench-head
set -e
if [ $# -ne 2 ]; then
	echo "usage: sh scripts/hotkernels.sh BASE_BINARY HEAD_BINARY" >&2
	exit 2
fi
kernels='sparse.(*CSR).mulRows
sparse.(*CSR).mulVec4
sparse.(*CSR).mulRowsRobust
checksum.NewMatrixInto
abft.(*Protected).MulVec
abft.(*Protected).mulVec4
abft.(*Protected).defects
abft.(*Protected).defectsRow1
abft.(*Protected).verify
abft.(*VectorGuard).Linear
vec.Norm2SqBlocked
vec.DotBlocked
vec.Dot
vec.Axpy
vec.AxpyTo
vec.Xpay
tmr.axpyBlock'
base=$(go tool nm -n "$1")
head=$(go tool nm -n "$2")

# addr SYMBOLS NAME prints the text address of NAME, or nothing.
addr() {
	echo "$1" | awk -v s="repro/internal/$2" '$2 == "T" && $3 == s { print $1; exit }'
}

printf '%-32s %10s %5s  %10s %5s\n' kernel base mod64 head mod64
echo "$kernels" | while read -r k; do
	a=$(addr "$base" "$k")
	b=$(addr "$head" "$k")
	ra=-
	rb=-
	[ -n "$a" ] && ra=$((0x$a % 64))
	[ -n "$b" ] && rb=$((0x$b % 64))
	note=
	[ "$ra" != "$rb" ] && note='  moved'
	printf '%-32s %10s %5s  %10s %5s%s\n' "$k" "${a:--}" "$ra" "${b:--}" "$rb" "$note"
done
