"""The debugger's benchmark (see run.py)."""
