package flow

// BuildCSR fills the off/lst index of a CSR adjacency over m edges on n
// vertices: off must have length n+1, lst and the cursor scratch length m
// and n respectively. After the call, lst[off[v]:off[v+1]] lists the edge
// indices leaving v in insertion order. from(i) reports the tail vertex
// of edge i. RatGraph and flowref.Graph share it, so their adjacency
// iteration order is identical (the differential tests rely on that).
func BuildCSR(n, m int, from func(i int) int32, off, lst, cursor []int32) {
	for i := 0; i <= n; i++ {
		off[i] = 0
	}
	for i := 0; i < m; i++ {
		off[from(i)+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	copy(cursor[:n], off[:n])
	for i := 0; i < m; i++ {
		v := from(i)
		lst[cursor[v]] = int32(i)
		cursor[v]++
	}
}
