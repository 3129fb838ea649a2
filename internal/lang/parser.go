package lang

import (
	"fmt"
	"strconv"

	"fuseme/internal/dag"
	"fuseme/internal/matrix"
)

// InputDecl declares the shape and estimated sparsity of a named input
// matrix referenced by a script.
type InputDecl struct {
	Rows, Cols int
	Sparsity   float64 // estimated non-zero fraction; 1 for dense
}

// Parse compiles a script into a query DAG. The inputs map declares every
// free variable of the script. Every final binding that no later statement
// reads becomes a named output.
func Parse(src string, inputs map[string]InputDecl) (g *dag.Graph, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, g: dag.NewGraph(), env: make(map[string]*dag.Node), decls: inputs,
		read: make(map[string]bool)}
	defer func() {
		// The dag builder panics on shape errors; surface them as errors
		// with position context.
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("line %d: %v", p.cur().line, r)
		}
	}()
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	// Outputs: final bindings no later statement reads. A binding is read by
	// name, not by node: one that a rewrite such as t(t(E)) -> E folded into
	// another node, or that names an input, is an output all the same.
	n := 0
	for _, name := range p.assignOrder {
		if !p.read[name] {
			p.g.SetOutput(name, p.env[name])
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("script defines no outputs (every assignment is consumed)")
	}
	// Drop what no output reaches — a rewrite's leftover such as the inner
	// t(E) of t(t(E)), a replaced binding — so no planner counts a consumer
	// that is not there.
	p.g.Prune()
	if err := p.g.Validate(); err != nil {
		return nil, err
	}
	return p.g, nil
}

type parser struct {
	toks        []token
	pos         int
	g           *dag.Graph
	env         map[string]*dag.Node
	decls       map[string]InputDecl
	assignOrder []string
	read        map[string]bool // a binding a later statement has read
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, fmt.Errorf("line %d: expected %v, found %q", t.line, k, t.text)
	}
	return p.next(), nil
}

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.next()
	}
}

func (p *parser) parseProgram() error {
	for {
		p.skipNewlines()
		if p.cur().kind == tokEOF {
			return nil
		}
		if err := p.parseStmt(); err != nil {
			return err
		}
	}
}

func (p *parser) parseStmt() error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	eq := p.cur()
	if eq.kind != tokOp || eq.text != "=" {
		return fmt.Errorf("line %d: expected '=' after %q, found %q", eq.line, name.text, eq.text)
	}
	p.next()
	node, err := p.parseExpr()
	if err != nil {
		return err
	}
	if t := p.cur(); t.kind != tokNewline && t.kind != tokEOF {
		return fmt.Errorf("line %d: unexpected %q after statement", t.line, t.text)
	}
	if _, seen := p.env[name.text]; !seen {
		p.assignOrder = append(p.assignOrder, name.text)
	}
	p.env[name.text] = node
	p.read[name.text] = false
	return nil
}

// Precedence climbing: comparison < additive < multiplicative < matmul <
// unary minus < power < atom. '^' binds tighter than unary minus and is
// right-associative, matching R/DML.
func (p *parser) parseExpr() (*dag.Node, error) { return p.parseCompare() }

func (p *parser) parseCompare() (*dag.Node, error) {
	lhs, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp {
			return lhs, nil
		}
		switch t.text {
		case "==", "!=", ">", "<", ">=", "<=":
			p.next()
			rhs, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			op, _ := matrix.ParseBinOp(t.text)
			lhs = p.g.Binary(op, lhs, rhs)
		default:
			return lhs, nil
		}
	}
}

func (p *parser) parseAddSub() (*dag.Node, error) {
	lhs, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseMulDiv()
		if err != nil {
			return nil, err
		}
		op, _ := matrix.ParseBinOp(t.text)
		lhs = p.g.Binary(op, lhs, rhs)
	}
}

func (p *parser) parseMulDiv() (*dag.Node, error) {
	lhs, err := p.parseMatMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseMatMul()
		if err != nil {
			return nil, err
		}
		op, _ := matrix.ParseBinOp(t.text)
		lhs = p.g.Binary(op, lhs, rhs)
	}
}

func (p *parser) parseMatMul() (*dag.Node, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	operands := []*dag.Node{first}
	for {
		t := p.cur()
		if t.kind != tokOp || t.text != "%*%" {
			break
		}
		p.next()
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		operands = append(operands, rhs)
	}
	if len(operands) == 1 {
		return first, nil
	}
	// Validate the chain's inner dimensions up front so errors point at the
	// source expression rather than a reordered tree.
	for i := 1; i < len(operands); i++ {
		if operands[i-1].Cols != operands[i].Rows {
			return nil, fmt.Errorf("line %d: matmul inner mismatch %dx%d x %dx%d",
				p.cur().line, operands[i-1].Rows, operands[i-1].Cols, operands[i].Rows, operands[i].Cols)
		}
	}
	return p.buildChain(operands), nil
}

func (p *parser) parseUnary() (*dag.Node, error) {
	t := p.cur()
	if t.kind == tokOp && t.text == "-" {
		p.next()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.g.Unary("neg", operand), nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (*dag.Node, error) {
	base, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokOp && t.text == "^" {
		p.next()
		// Right associative; exponent may itself be -x or y^z.
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// ^2 on a matrix is so common (squared losses) that it gets the
		// cheap sq kernel; scalar^2 stays a plain pow.
		if exp.Op == dag.OpScalar && exp.Scalar == 2 && base.Op != dag.OpScalar {
			return p.g.Unary("sq", base), nil
		}
		return p.g.Binary(matrix.Pow, base, exp), nil
	}
	return base, nil
}

func (p *parser) parseAtom() (*dag.Node, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad number %q", t.line, t.text)
		}
		return p.g.Scalar(v), nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		if p.cur().kind == tokLParen {
			return p.parseCall(t)
		}
		return p.resolve(t)
	}
	return nil, fmt.Errorf("line %d: unexpected %q", t.line, t.text)
}

func (p *parser) resolve(t token) (*dag.Node, error) {
	if n, ok := p.env[t.text]; ok {
		p.read[t.text] = true
		return n, nil
	}
	if d, ok := p.decls[t.text]; ok {
		n := p.g.Input(t.text, d.Rows, d.Cols, d.Sparsity)
		p.env[t.text] = n
		return n, nil
	}
	return nil, fmt.Errorf("line %d: undefined variable %q", t.line, t.text)
}

func (p *parser) parseCall(name token) (*dag.Node, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []*dag.Node
	if p.cur().kind != tokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	fn := name.text
	switch {
	case fn == "t":
		if len(args) != 1 {
			return nil, fmt.Errorf("line %d: t() takes 1 argument", name.line)
		}
		return p.g.Transpose(args[0]), nil
	case fn == "min" || fn == "max":
		switch len(args) {
		case 1:
			agg, _ := matrix.ParseAggFunc(fn)
			return p.g.Agg(agg, args[0]), nil
		case 2:
			op := matrix.MinOp
			if fn == "max" {
				op = matrix.MaxOp
			}
			return p.g.Binary(op, args[0], args[1]), nil
		}
		return nil, fmt.Errorf("line %d: %s() takes 1 or 2 arguments", name.line, fn)
	case fn == "mean":
		if len(args) != 1 {
			return nil, fmt.Errorf("line %d: mean() takes 1 argument", name.line)
		}
		// The full sum over the cell count: partial sums combine across
		// blocks and tasks, and the result divides once.
		e := args[0]
		return p.g.Binary(matrix.Mul, p.g.Agg(matrix.SumAll, e), p.g.Scalar(1/float64(e.Rows*e.Cols))), nil
	case fn == "pow":
		if len(args) != 2 {
			return nil, fmt.Errorf("line %d: pow() takes 2 arguments", name.line)
		}
		return p.g.Binary(matrix.Pow, args[0], args[1]), nil
	default:
		if agg, ok := matrix.ParseAggFunc(fn); ok {
			if len(args) != 1 {
				return nil, fmt.Errorf("line %d: %s() takes 1 argument", name.line, fn)
			}
			return p.g.Agg(agg, args[0]), nil
		}
		if _, ok := matrix.UnaryFunc(fn); ok {
			if len(args) != 1 {
				return nil, fmt.Errorf("line %d: %s() takes 1 argument", name.line, fn)
			}
			return p.g.Unary(fn, args[0]), nil
		}
	}
	return nil, fmt.Errorf("line %d: unknown function %q", name.line, fn)
}
