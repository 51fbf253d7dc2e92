"""Shared acceptance-criteria registry, end-of-run summary and checkpoint layout."""

import struct

ACCEPTANCE = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for idx in sorted(ACCEPTANCE):
        status, label = ACCEPTANCE[idx]
        terminalreporter.write_line(f"criterion {idx:2d}: {status}  {label}")


def checkpoint_header(n_branches):
    """Byte offsets of a checkpoint header's fields, keyed by field name.

    The header holds ``n_branches`` branch kernels: ``"kernels"`` is where
    the first one's height sits, and ``"end"`` is the header's length.
    """
    fields = (("magic", "4s"), ("version", "H"), ("growth_rate", "I"),
              ("layers_per_block", "I"), ("depth", "I"), ("final_block_layers", "I"),
              ("branch_count", "H"), ("kernels", f"{2 * n_branches}I"),
              ("stat_min", "d"), ("stat_max", "d"), ("end", ""))
    offsets, fmt = {}, "<"
    for name, code in fields:
        offsets[name] = struct.calcsize(fmt)
        fmt += code
    return offsets
