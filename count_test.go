package fuseme

import (
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/matrix"
)

// aeStepScript is one AutoEncoder train step — forward, backward and the SGD
// update of all eight parameters — in one query.
const aeStepScript = `
H1 = sigmoid(W1 %*% XT + b1)
H2 = sigmoid(W2 %*% H1 + b2)
H3 = sigmoid(W3 %*% H2 + b3)
Y = sigmoid(W4 %*% H3 + b4)
E = Y - XT
D4 = E * sigmoidGrad(Y)
D3 = (t(W4) %*% D4) * sigmoidGrad(H3)
D2 = (t(W3) %*% D3) * sigmoidGrad(H2)
D1 = (t(W2) %*% D2) * sigmoidGrad(H1)
W1n = W1 - lrm * (D1 %*% t(XT))
b1n = b1 - lrm * rowSums(D1)
W2n = W2 - lrm * (D2 %*% t(H1))
b2n = b2 - lrm * rowSums(D2)
W3n = W3 - lrm * (D3 %*% t(H2))
b3n = b3 - lrm * rowSums(D3)
W4n = W4 - lrm * (D4 %*% t(H3))
b4n = b4 - lrm * rowSums(D4)
`

// reboundCases are GNMF and an AutoEncoder train step, each with the inputs
// it starts from and the outputs it rebinds as its next iteration's inputs.
var reboundCases = []struct {
	name, script string
	bind         func(*Session)
	rebind       [][2]string
}{
	{"gnmf", gnmfScript, func(s *Session) {
		s.RandomSparse("X", 60, 50, 0.1, 1, 5, 1)
		s.RandomDense("U", 8, 50, 0.1, 0.9, 2)
		s.RandomDense("V", 60, 8, 0.1, 0.9, 3)
	}, [][2]string{{"U2", "U"}, {"V2", "V"}}},
	{"autoencoder", aeStepScript, func(s *Session) {
		const f, h1, h2, batch = 64, 32, 8, 16
		for i, d := range []struct {
			name       string
			rows, cols int
		}{{"W1", h1, f}, {"b1", h1, 1}, {"W2", h2, h1}, {"b2", h2, 1}, {"W3", h1, h2}, {"b3", h1, 1}, {"W4", f, h1}, {"b4", f, 1}} {
			s.RandomDense(d.name, d.rows, d.cols, -0.3, 0.3, int64(i+1))
		}
		s.RandomDense("lrm", 1, 1, 0.01, 0.01, 9)
		s.RandomSparse("XT", f, batch, 0.3, 0, 1, 10)
	}, [][2]string{{"W1n", "W1"}, {"b1n", "b1"}, {"W2n", "W2"}, {"b2n", "b2"}, {"W3n", "W3"}, {"b3n", "b3"}, {"W4n", "W4"}, {"b4n", "b4"}}},
}

// TestReboundOutputDensityExact: a result's non-zeros are counted where its
// blocks are made, and a result rebound as an input declares that count. For
// GNMF and an AutoEncoder train step, three iterations each, on the simulated
// cluster and over two loopback TCP workers, the density the session declares
// for every rebound output (decls) equals a full scan of its values, and the
// plan compiled over the rebound outputs is the plan compiled over fresh
// copies of the same values.
func TestReboundOutputDensityExact(t *testing.T) {
	const bs = 16
	for _, c := range reboundCases {
		for _, runtime := range []string{"sim", "tcp"} {
			cfg := LocalClusterConfig()
			cfg.BlockSize = bs
			if runtime == "tcp" {
				cfg.Runtime, cfg.Workers = "tcp", startWorkers(t, 2)
			}
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			c.bind(s)
			for it := 0; it < 3; it++ {
				out, err := s.Query(c.script)
				if err != nil {
					t.Fatalf("%s/%s iteration %d: %v", c.name, runtime, it, err)
				}
				for _, r := range c.rebind {
					s.Bind(r[1], out[r[0]])
				}
				decls := s.decls()
				fresh := map[string]*block.Matrix{}
				for name, b := range s.inputs {
					vals := matrix.ToDense(b.ToMat()).Data
					nnz := 0
					for _, v := range vals {
						if v != 0 {
							nnz++
						}
					}
					if want := clampDensity(float64(nnz) / float64(len(vals))); decls[name].Sparsity != want {
						t.Errorf("%s/%s iteration %d: %s declares density %v, a scan of its values %v",
							c.name, runtime, it, name, decls[name].Sparsity, want)
					}
					fresh[name] = block.FromMat(b.ToMat(), bs)
				}
				plan, err := s.Explain(c.script)
				if err != nil {
					t.Fatal(err)
				}
				rebound := s.inputs
				s.inputs = fresh
				freshPlan, err := s.Explain(c.script)
				s.inputs = rebound
				if err != nil {
					t.Fatal(err)
				}
				if plan != freshPlan {
					t.Errorf("%s/%s iteration %d: the plan over the rebound outputs\n%s\ndiffers from the plan over fresh copies\n%s",
						c.name, runtime, it, plan, freshPlan)
				}
			}
		}
	}
}
