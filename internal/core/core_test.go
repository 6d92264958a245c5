package core

import (
	"errors"
	"testing"
	"time"
)

// collectContext builds a Context that appends emissions to a slice.
func collectContext(pe string) (*Context, *[]any) {
	var got []any
	ctx := NewContext(pe, 0, nil, nil, func(port string, v any) error {
		got = append(got, v)
		return nil
	})
	return ctx, &got
}

func TestMapPE(t *testing.T) {
	pe := NewMap("double", func(ctx *Context, v any) (any, error) {
		return v.(int) * 2, nil
	})
	if pe.Name() != "double" || len(pe.InPorts()) != 1 || len(pe.OutPorts()) != 1 {
		t.Fatalf("ports: %v %v", pe.InPorts(), pe.OutPorts())
	}
	ctx, got := collectContext("double")
	if err := pe.Process(ctx, PortIn, 21); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0].(int) != 42 {
		t.Fatalf("emissions: %v", *got)
	}
}

func TestMapPENilSkips(t *testing.T) {
	pe := NewMap("skip", func(ctx *Context, v any) (any, error) { return nil, nil })
	ctx, got := collectContext("skip")
	if err := pe.Process(ctx, PortIn, 1); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("nil result should emit nothing, got %v", *got)
	}
}

func TestMapPEError(t *testing.T) {
	boom := errors.New("boom")
	pe := NewMap("bad", func(ctx *Context, v any) (any, error) { return nil, boom })
	ctx, _ := collectContext("bad")
	if err := pe.Process(ctx, PortIn, 1); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
}

func TestEachPEMultipleEmissions(t *testing.T) {
	pe := NewEach("fan", func(ctx *Context, v any) error {
		for i := 0; i < v.(int); i++ {
			if err := ctx.EmitDefault(i); err != nil {
				return err
			}
		}
		return nil
	})
	ctx, got := collectContext("fan")
	if err := pe.Process(ctx, PortIn, 3); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Fatalf("emissions: %v", *got)
	}
}

func TestSourcePE(t *testing.T) {
	pe := NewSource("gen", func(ctx *Context) error {
		for i := 0; i < 4; i++ {
			if err := ctx.EmitDefault(i); err != nil {
				return err
			}
		}
		return nil
	})
	if pe.InPorts() != nil {
		t.Fatal("source must have no inputs")
	}
	ctx, got := collectContext("gen")
	if err := pe.Generate(ctx); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 4 {
		t.Fatalf("generated: %v", *got)
	}
	// Feeding a source input is an error.
	if err := pe.Process(ctx, PortIn, 1); err == nil {
		t.Fatal("source Process should reject input")
	}
}

func TestSinkPE(t *testing.T) {
	var sunk []any
	pe := NewSink("drain", func(ctx *Context, v any) error {
		sunk = append(sunk, v)
		return nil
	})
	if pe.OutPorts() != nil {
		t.Fatal("sink must have no outputs")
	}
	ctx, _ := collectContext("drain")
	if err := pe.Process(ctx, PortIn, "x"); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 1 {
		t.Fatalf("sunk: %v", sunk)
	}
}

func TestContextEmitWithoutEngine(t *testing.T) {
	ctx := NewContext("pe", 0, nil, nil, nil)
	if err := ctx.EmitDefault(1); err == nil {
		t.Fatal("emit without engine should error")
	}
}

func TestContextWorkNilHostSleeps(t *testing.T) {
	ctx := NewContext("pe", 0, nil, nil, nil)
	start := time.Now()
	ctx.Work(15 * time.Millisecond)
	if time.Since(start) < 10*time.Millisecond {
		t.Error("Work under nil host should still take the duration")
	}
	ctx.Work(0) // no-op
}

func TestContextRandNeverNil(t *testing.T) {
	ctx := NewContext("pe", 3, nil, nil, nil)
	if ctx.Rand() == nil {
		t.Fatal("Rand returned nil")
	}
	if ctx.Instance() != 3 {
		t.Error("accessors")
	}
}
