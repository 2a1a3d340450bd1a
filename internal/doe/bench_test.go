package doe

import "testing"

func quadRowBench(x []float64) []float64 {
	k := len(x)
	row := make([]float64, 0, 1+2*k+k*(k-1)/2)
	row = append(row, 1)
	row = append(row, x...)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			row = append(row, x[i]*x[j])
		}
	}
	return row
}

func BenchmarkCentralComposite6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CentralComposite(6, CCC, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatinHypercubeMaximin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LatinHypercube(4, 30, 1, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOptimalFedorov(b *testing.B) {
	cands, err := FullFactorial(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DOptimal(cands, 27, quadRowBench, int64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}
