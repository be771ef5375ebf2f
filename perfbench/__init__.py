"""A steady compile_cold / query_warm / serve_mixed benchmark of repro."""
