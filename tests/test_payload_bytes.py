"""The bytes of every payload the demo's full analysis sends.

A mock fixture is named by the digest of the payload it answers
(``gateway.fixture_relpaths``), so the sorted names of the fixtures one
run scripts pin every byte of every payload it sends: page and spec XML,
their JSON envelopes and the prompts' payload halves. Recorded fixtures
and token counts follow from those bytes. A change that alters a payload
fails here; when that is meant, this list, the fixtures and the token
figures change together.
"""

from pathlib import Path

from schemreview.config import load_config
from schemreview.demo import generate_fixtures, write_demo_workspace
from schemreview.pipeline import RunStatus, run_pipeline

RECORDED = [
    'consensus/299923a06b3a5d41-0.resp',
    'consensus/9fc688adcb57a018-0.resp',
    'critic/082836e07c31f7e6-0.resp',
    'critic/1bdf734516a457ac-0.resp',
    'critic/55fa2fecb88acfe0-0.resp',
    'critic/8b641bad93d62df6-0.resp',
    'critic/a47bbc97736a9ccf-0.resp',
    'critic/d743bf87f5f11f95-0.resp',
    'critic/e3af85b1790d56e5-0.resp',
    'critic/f9b8ab078bac3f1a-0.resp',
    'extraction/26e5d61eb435d18d-0.resp',
    'extraction/51178574031925aa-0.resp',
    'extraction/aba4dc302d6b4925-0.resp',
    'extraction/d1055ccec2ea5e0c-0.resp',
    'extraction/db5a2c520e74b786-0.resp',
    'extraction/df3c8adcc04e783f-0.resp',
    'extraction/e2aa8707529f1205-0.resp',
    'extraction/fd8355fdbb9c6215-0.resp',
    'group_review/19c85bd32aa2feda-0.resp',
    'group_review/19c85bd32aa2feda-1.resp',
    'group_review/19c85bd32aa2feda-2.resp',
    'group_review/2e76e0dcae0d530d-0.resp',
    'group_review/2e76e0dcae0d530d-1.resp',
    'group_review/2e76e0dcae0d530d-2.resp',
    'group_review/441affd1204319a6-0.resp',
    'group_review/441affd1204319a6-1.resp',
    'group_review/441affd1204319a6-2.resp',
    'group_review/4a4d69afe16a8a09-0.resp',
    'group_review/4a4d69afe16a8a09-1.resp',
    'group_review/4a4d69afe16a8a09-2.resp',
    'group_review/c21fbfe90fdcc51e-0.resp',
    'group_review/c21fbfe90fdcc51e-1.resp',
    'group_review/c21fbfe90fdcc51e-2.resp',
    'head_analysis/0ec1ab12119c3ace-0.resp',
    'head_analysis/13a872de20414d61-0.resp',
    'head_analysis/44fcc745506622b3-0.resp',
    'head_analysis/5886b8fcd3dc7bbd-0.resp',
    'head_analysis/7f8c408e3bd25bad-0.resp',
    'head_analysis/9a93976c7330cddf-0.resp',
    'head_analysis/ad4e907a936c5f0b-0.resp',
    'head_analysis/e7efff0fcb3ac6ae-0.resp',
    'selection/389d63665b855005-0.resp',
    'selection/5d3903b1197620d9-0.resp',
    'selection/adeabf4ac344da12-0.resp',
]


def test_the_demo_sends_the_recorded_payloads(tmp_path):
    paths = write_demo_workspace(tmp_path)
    cfg = load_config(paths["config"])
    report = generate_fixtures(lambda: run_pipeline(cfg, paths["schematic"]),
                               paths["fixtures"])
    assert report.status == RunStatus.COMPLETE
    fixtures = Path(paths["fixtures"])
    assert sorted(p.relative_to(fixtures).as_posix()
                  for p in fixtures.glob("*/*.resp")) == RECORDED
