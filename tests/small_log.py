"""The small synthetic log whose renders tests/golden keeps."""

from tasklens.synth import EditMix, edit_analysis_lines, feedback_lines

SMALL_MIX = EditMix(
    fully=20, minor=6, minor_module=3, major=4, deleted=5,
    rejected=12, ignored=2, unresolved=3,
)


def small_log_lines() -> list[str]:
    lines = edit_analysis_lines(SMALL_MIX, n_users=5)
    lines += feedback_lines(star_counts={5: 4, 3: 1, 1: 1},
                            negative_labels={"broken": 2},
                            positive_labels={"fast": 3})
    return lines
