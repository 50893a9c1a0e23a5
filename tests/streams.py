"""Regrouping of streamed frames for the tests.

run_system and run_convergence_sweep hand each frame to on_frame as the list
of its K rungs; tests that compare whole runs want one time series per rung
instead.  A FrontTrack takes one frame at a time; tests that hold a whole
(t, p) series feed it with front_track.
"""

import singlimit as sl


def rung_series(models, states, config):
    """run_system's frames, kept and regrouped as one series per rung."""
    frames = []
    sl.run_system(models, states, config, on_frame=frames.append)
    return [list(series) for series in zip(*frames)]


def sweep_series(*args, **kw):
    """run_convergence_sweep's (report, limit_series), plus its reduced
    frames kept and regrouped as one series per rung."""
    frames = []
    report, limit = sl.run_convergence_sweep(*args, on_frame=frames.append, **kw)
    return report, limit, [list(series) for series in zip(*frames)]


def front_track(series, window, level):
    """A FrontTrack fed every (t, p) frame of series in order."""
    track = sl.FrontTrack(window, level)
    for t, p in series:
        track.add(t, p)
    return track
