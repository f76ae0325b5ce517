#!/usr/bin/env python3
"""From source text to a labelled control-flow graph.

Walks the bundled two-function program through the frontend: parse, assign
statement labels, pretty-print it back, and lower it to the CFG whose edges
carry predicates, update functions, value-passing functions, and demonic
star markers.
"""

from termcert import build_cfg, dump_cfg, label_program, parse_program, pretty_print
from termcert.fixtures import fixture_text
from termcert.lang import iter_statements

source = fixture_text("halving_game.prob")
print("--- source ---")
print(source)

program = label_program(parse_program(source))
print("--- labels assigned depth-first per function body ---")
for fn in program.functions:
    labelled = {stmt.label: stmt for stmt in iter_statements(fn.body) if stmt.label is not None}
    stmt_labels = ", ".join(
        f"{label}:{type(stmt).__name__}" for label, stmt in sorted(labelled.items())
    )
    print(f"{fn.name}: {stmt_labels}, terminal={fn.terminal_label}")

print()
print("--- pretty-printed (re-parses to the same AST) ---")
print(pretty_print(program))

cfg = build_cfg(program)
print("--- control-flow graph ---")
print(dump_cfg(cfg))

f = cfg.function("f")
print("label classes in f:",
      {label: f.label_class(label) for label in f.labels()})
