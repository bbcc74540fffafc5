"""Synthetic training data: parametric faces and textured backgrounds.

Stands in for the paper's proprietary training set (11 742 frontal 24x24
faces + 3 500 backgrounds) per the substitution table in DESIGN.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "faces": ("FaceParams", "render_face", "render_face_chip", "face_eye_positions"),
        "backgrounds": ("render_background", "sample_patches"),
    },
)
