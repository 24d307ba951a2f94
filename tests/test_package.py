import softedge
from softedge import calibration, codec, metrics, ssm, synth, tensor_io


def test_public_names_are_the_modules_lists():
    owners = {n: m for m in (calibration, codec, metrics, ssm, tensor_io)
              for n in m.__all__}
    owners.update(DistSpec=synth, generate=synth)
    assert sorted(softedge.__all__) == sorted(owners)
    assert len(set(softedge.__all__)) == len(softedge.__all__)
    for name, module in owners.items():
        assert getattr(softedge, name) is getattr(module, name)
