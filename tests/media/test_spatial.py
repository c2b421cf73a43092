"""Unit tests for spatial audio and the cocktail-party effect."""

import numpy as np
import pytest

from repro.media.spatial import (
    SpatialAudioScene,
    angular_separation,
    received_level_db,
)


def test_received_level_inverse_square():
    near = received_level_db(1.0)
    far = received_level_db(2.0)
    assert near - far == pytest.approx(6.0, abs=0.1)  # 6 dB per doubling
    with pytest.raises(ValueError):
        received_level_db(0.0)


def test_angular_separation_geometry():
    listener = np.zeros(3)
    ahead = np.array([1.0, 0.0, 0.0])
    left = np.array([0.0, 1.0, 0.0])
    behind = np.array([-1.0, 0.0, 0.0])
    assert angular_separation(listener, ahead, left) == pytest.approx(np.pi / 2)
    assert angular_separation(listener, ahead, behind) == pytest.approx(np.pi)
    assert angular_separation(listener, ahead, ahead) == 0.0


def scene_with_maskers(n_maskers, masker_angle=np.pi / 2):
    listener = np.zeros(3)
    speakers = [("target", (2.0, 0.0, 0.0))]
    for i in range(n_maskers):
        angle = masker_angle
        speakers.append((
            f"m{i}", (2.0 * np.cos(angle), 2.0 * np.sin(angle), 0.0)
        ))
    return SpatialAudioScene.build(listener, speakers)


def test_quiet_room_fully_intelligible():
    scene = scene_with_maskers(0)
    assert scene.intelligibility("target", spatialized=True) > 0.99
    assert scene.intelligibility("target", spatialized=False) > 0.99


def test_spatial_release_from_masking():
    """The cocktail-party effect the presence model credits."""
    scene = scene_with_maskers(3)
    mono = scene.intelligibility("target", spatialized=False)
    spatial = scene.intelligibility("target", spatialized=True)
    assert spatial > mono + 0.15


def test_colocated_masker_gets_no_release():
    """A masker at the same angle as the target cannot be separated out."""
    scene = scene_with_maskers(1, masker_angle=0.0)
    mono = scene.signal_to_babble_db("target", spatialized=False)
    spatial = scene.signal_to_babble_db("target", spatialized=True)
    assert spatial == pytest.approx(mono, abs=0.2)


def test_more_maskers_hurt():
    few = scene_with_maskers(1).intelligibility("target", True)
    many = scene_with_maskers(8).intelligibility("target", True)
    assert many < few


def test_distance_matters():
    listener = np.zeros(3)
    near_scene = SpatialAudioScene.build(
        listener, [("t", (1.0, 0, 0)), ("m", (0, 3.0, 0))]
    )
    far_scene = SpatialAudioScene.build(
        listener, [("t", (8.0, 0, 0)), ("m", (0, 3.0, 0))]
    )
    assert near_scene.intelligibility("t", True) > far_scene.intelligibility("t", True)


def test_unknown_speaker():
    scene = scene_with_maskers(1)
    with pytest.raises(KeyError):
        scene.intelligibility("ghost", True)
