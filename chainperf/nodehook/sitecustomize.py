"""Start-up hook for traced node subprocesses of the TCP transport.

The traced tcp-opt run puts this directory first on PYTHONPATH, so every
node process the hub spawns imports this file at start-up and installs the
benchmark's layer wrappers.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import spans  # noqa: E402

if os.environ.get(spans.NODE_TRACE_ENV):
    spans.install_in_node_process(os.environ[spans.NODE_TRACE_ENV])
