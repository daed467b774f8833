"""Worker-side code of the repository benchmark (see ``perfbench/README.md``).

Everything here runs inside a fresh worker process spawned by
``perfbench/run.py`` and drives the program only through its public
functions; nothing under ``src/`` is modified or monkeypatched.
"""
