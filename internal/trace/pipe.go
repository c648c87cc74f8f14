package trace

// Pipe feeds fixed-size instruction blocks from a BlockGenerator to a
// simulation loop. Refill generates the next block into the pipe's one
// buffer on the calling goroutine, so the delivered instruction stream
// is exactly the generator's, and all of a simulation's work — trace
// generation included — runs on the goroutine that simulates.
//
// Cur and Pos are the consumer's cursor into the current block; the
// consumer advances Pos itself and calls Refill when Pos reaches
// len(Cur). Keeping the cursor on the Pipe lets one consumption
// position span several consuming loops (e.g. a warm-up window ending
// mid-block and the measurement window picking up the remainder).
// A Pipe is not safe for concurrent use.
type Pipe struct {
	// Cur is the block being consumed; Pos the next index within it.
	Cur []Instr
	Pos int

	bg  BlockGenerator
	buf []Instr
}

// NewPipe returns a pipe that refills buf from bg. A nil buf allocates
// one block of BlockSize instructions; a caller running many pipes in
// turn passes the same buffer to each.
func NewPipe(bg BlockGenerator, buf []Instr) *Pipe {
	if buf == nil {
		buf = make([]Instr, BlockSize)
	}
	return &Pipe{bg: bg, buf: buf}
}

// Refill generates the next block and rewinds the cursor to its start.
func (p *Pipe) Refill() {
	p.bg.NextBlock(p.buf)
	p.Cur = p.buf
	p.Pos = 0
}
