"""Request-flow reconstruction from kernel trace captures.

Parses ftrace or bpftrace output, replays it through a per-thread state
model that follows TCP sends, receives, forks, and exits, and emits one
directed acyclic graph per externally arriving request. A synthetic
harness generates captures with exact ground truth for end-to-end checks.

The package re-exports nothing: import each name from the module that
defines it.
"""
