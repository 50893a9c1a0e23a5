"""Regrouping of streamed frames for the tests.

run_system hands each frame to on_frame as the list of its K rung states;
tests that compare whole runs want one time series per rung instead.
"""

import singlimit as sl


def rung_series(models, states, config):
    """run_system's frames, kept and regrouped as one series per rung."""
    frames = []
    sl.run_system(models, states, config, on_frame=frames.append)
    return [list(series) for series in zip(*frames)]
