"""The generator: pinned output bytes, draws shared through the literal table,
and zero-sum games drawn as integer forms."""

import hashlib
from itertools import chain

import pytest

from matchgames import core
from matchgames.cli import main
from matchgames.gen import generate_instance, random_game

from fixtures import negate

# (model, classes, --den) -> sha256 of `gen --doctors 11 --hospitals 3` for
# seeds 0-4.  Eleven doctors put "d10" before "d2" in the roommates model,
# so its pairs stored under the swapped key are pinned too.
PINNED_GEN_DIGESTS = {
    ("additive", "zero_sum", 1): [
        "e6a2868b5f11c2ac0861b3a2b40bcc34ae500460ebfd750f1f356ecf31f4a4bd",
        "0c8165cefedaac3000f17b238762baa10abb25c85987af09c3f6cf06e63ec90b",
        "825af6f95837d6c5954475e297d3936f844c513b1cdf1573d0965e8423fb7e43",
        "54b530d2bf74ff1f24564337933046576d46a1041630d3268227d56e10f2b422",
        "93f6bd3943d970eae686ea56673070cc6dd993f7f0c6d22b39bd6b0a2aa3d6da",
    ],
    ("additive", "zero_sum", 3): [
        "043075fbd2af5eb744109b5edac2851fa4c890db4b3f91c352dcf6cd8f69faa9",
        "f47c4851d4cc3f67e24108c47e749b43dbefd90d0a94934cb5ea17493494ef7f",
        "61e84e5298040ea98a3943c3c2f83767e287838914e7ec43d0ba0da49ecd8871",
        "df49b7710b32e0b11d3d66c8213735b5644089df50b0426ae7ec9800cb056618",
        "bd144e60f14133b7f9825c210f00ec36f8baae7bfd9809e2b9148cc73bff0164",
    ],
    ("additive", "zero_sum,strictly_competitive", 1): [
        "b80364d2167c0944f4063d01f56019ceea092925cd47e7de03d9e6023bf5beea",
        "bf6195aaf7e85b914bb2512fa51e9f65a0f5e3d5691ee1ebdca0610dcb3bec17",
        "f836718980dc02d12a9ea512643f9a9b828d1cdc49cd641bb68243bbbb797242",
        "be4d3809da99a04223c71fed14c073bade4ce9b3b11256772db742ae62bc3244",
        "c14ceba0eb015519d84d623ef971b0e3a8653fe78508f97b14d0bab68e5f60a0",
    ],
    ("additive", "zero_sum,strictly_competitive", 3): [
        "f74a1db3488a97bf842c5c549b24548abab7afacd5011313817a2240bb34b060",
        "9e02d08cb46cca1b081ce61a9eb77358137f4fb01ca9031bf08e4c30a90ee373",
        "d19e0952929ebcf2e792c0e33ddaa49a599fdf4c798331fa329d0b709337a004",
        "3d65f246e858102c82d0412b03aa17efe36c8534e97db1870226ef82a616e52e",
        "a3b75607332d17f1f355d56515ffa456bea04e4f4b9f355e6f001567f98bb38d",
    ],
    ("additive", "zero_sum,strictly_competitive,repeated", 1): [
        "3dba9422e2891f98ea875ddfd1ddd50507d92d3e498579e4b988abb86d200934",
        "6fbe426b17d9e16a148cc49fac59a48913064be479bb3bc0ce2d205e504d8876",
        "f0210d146abaa20828938b9f2e002f3da461d3d687f7f0add171fa5c1b1f719b",
        "189ef56afe5e17e93e3d64b6bd32266bb8e07ee1883746222d00769294c177ff",
        "fc1f4056e5e167a7053470898071d172129ab0e5268f88aa6287e7479098b385",
    ],
    ("additive", "zero_sum,strictly_competitive,repeated", 3): [
        "d57ba33953fe39fbbcdee65cda485e58108c7b06cb4125192163b5bf4fd1add1",
        "0364915dcc59d3f513fd5330044ab95f8aea48dcf6222ce885ccc0a3b738ea8d",
        "11ee1555d926c6b92f54ffed3903c241147cb845459e09f9cf667febe9b681fe",
        "adeacf6e1f989272c09ce90759cda883d60546318da392886feda1b91a6f098e",
        "793214276f47a65e04ce6f8431ee2bc2490e0cac40701faf13a8a8bf12e22e80",
    ],
    ("roommates", "zero_sum", 1): [
        "60b2397477de580f11e8a3d91990b47230c81994604a675732fb19c676c39ec5",
        "b0ecd7e0898fc755fc620080115af6f81cd84fa040bd7a7c6991a6d2e1a13e6f",
        "56b5d81e68eb59b1705ca92ddd54b5a295bd3a5ecf4a92f044f9422c6e89237f",
        "7ccaa5e8827becb15bef10832f5c919c9180528537a40689151aa3b97bd9d8c2",
        "2d9cf86ba2d09ab666d90e724dc80fd084560b50d61330e3e0289d7bbc069d65",
    ],
    ("roommates", "zero_sum", 3): [
        "d5828c55f540791887539feeebdbb07b1a12fa7bd5f5c01e03377316760a81fa",
        "945ef3f88e869c6681d93557543403eb1b81df0bebc568293d7f75117c243980",
        "60b4101a05c5625b1ac62ec7f854c77a4f2f2821671ced1223c5d6357328e0b5",
        "37d5852b4ba9198f58e29203bdbc0c93334e56f74254c76fbbbdd9fc66f951c5",
        "faad614752576a63dacfce4aa0a924da431f723fba4020c166fe13689a722abc",
    ],
    ("roommates", "zero_sum,strictly_competitive", 1): [
        "520ef81db2a063b5bfed9a589cc2e6bf58e76cc3153ef06a277223d79c3792af",
        "5d95d20f162c20c5950bdd5f5c99440a64cee7f375f95149b50294ef18a738a1",
        "31fa20e839f506fe2dc757c594f757b10771f574c76f010e2cb91645038680d3",
        "1ea33fc4c11bd682832db03c55096536067a7cd21d2674b9d1da4efa804a28f7",
        "828831b8ffe6557ddb08520fc34d2ed0977d7c825f7c1cf92c6513467d848bcb",
    ],
    ("roommates", "zero_sum,strictly_competitive", 3): [
        "6029affe0d06ee677d334430308b771a47c3063b57a3c7357f5aafe2a46b091b",
        "6fd9c123a96892893b89e9d31491db6a5aa06a20d3221bcdb59fdf903c1cfc5b",
        "148b1a98efaec1ca49130b2cef19448c41365aaa8d9e270aeaaab09ca896ad99",
        "3542f21cfa03dca16f304437aa7ad94d1a6eca604d2c51c70f4da59525506f61",
        "8cc572842594bd5732cdf0f59c7e34b7848ff618c5dc59ffb1c68203db09acbb",
    ],
    ("roommates", "zero_sum,strictly_competitive,repeated", 1): [
        "3d454d014c512647d2f985791c2c88ed253aa0abb4be00ef99514cb2742d5e4d",
        "b5fe1c2f76f8047a1e949e77fda087692b0a9e6e33066379724d028bfeae89df",
        "b75914d73e31638f68289dca839b3b98afb484abe504d83bc16a8426a4d7158b",
        "fc523de9f0ba27e5df4fbf09240d7761b21d051f0b07212e927bd066182d9927",
        "193676012518f82a05fdb05340143b9e819f8095bd5d2f24576465b71450bb65",
    ],
    ("roommates", "zero_sum,strictly_competitive,repeated", 3): [
        "d2744d8808bb7833d946e8e95497895fdeff85a73de82ffecd812e5dbd0c174b",
        "5b110e368ee397fff5bb7bcf1d79ac82c8c4b4dbaf95274b1cac5ccd9dd2ed2d",
        "0ec38d4b2a6d6273ea7fc9b421fcc8ec08282bc9d6337d19a9f52f6593e98f45",
        "7e9565f5cddcd1beb0e75b962ea64b3b1d9bd651a76d5cb0747189849deb39f3",
        "0d3f221644dc1d62601f4492484db05eb45e9cc316ebace31508af52234c495b",
    ],
}


@pytest.mark.parametrize("model, classes, den", sorted(PINNED_GEN_DIGESTS))
def test_gen_documents_are_pinned(tmp_path, model, classes, den):
    out = tmp_path / "inst.json"
    digests = []
    for seed in range(5):
        assert main(["gen", "--model", model, "--seed", str(seed), "--doctors", "11",
                     "--hospitals", "3", "--classes", classes, "--den", str(den),
                     "--output", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == PINNED_GEN_DIGESTS[model, classes, den]


def _entries(instance):
    return chain.from_iterable(
        chain.from_iterable(game.doctor_matrix + game.hospital_matrix)
        for game in instance.games.values())


@pytest.mark.parametrize("den", [1, 3])
def test_equal_draws_share_one_fraction(den):
    core._empty_tables()  # no refill empties the table during the test
    instance = generate_instance(5, n_doctors=12, n_hospitals=4, max_denominator=den)
    values = [*_entries(instance), *(d.irp for d in instance.doctors.values()),
              *(h.irp for h in instance.hospitals.values())]
    objects = {}
    for v in values:
        assert objects.setdefault(v, v) is v
    assert len(objects) < len(values) / 4  # a few distinct values, drawn again and again


@pytest.mark.parametrize("den", [1, 3])
def test_zero_sum_hospital_form_is_the_negated_doctor_form(den):
    instance = generate_instance(6, n_doctors=8, n_hospitals=3, max_denominator=den)
    dens = set()
    for game in instance.games.values():
        (ka, la), (km, lm) = game.scaled
        assert lm == la and km == tuple(tuple(-v for v in row) for row in ka)
        assert game.hospital_matrix == negate(game.doctor_matrix)
        dens.add(la)
    assert (dens == {1}) == (den == 1)


def test_generated_zero_sum_game_is_checked_by_tuple_comparison(monkeypatch):
    # The check compares the two integer forms in C, and negates neither A
    # nor A's form.
    import random

    def negation(m):
        raise AssertionError("the check negated A")

    monkeypatch.setattr(core, "_negated", negation)
    game = random_game(random.Random(1), 3, 3, core.ZERO_SUM, max_denominator=2)
    assert game.frontier.segment.p == 0
