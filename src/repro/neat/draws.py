"""NEAT's draws served from pre-drawn PCG64 words, bit for bit.

One evolve phase at population 1000 makes some 40k scalar draws, and a
scalar ``Generator`` call costs about 0.8 µs, mostly NumPy's call
overhead.  :class:`DrawStream` makes the same draws without a NumPy
call each: it takes PCG64's raw 64-bit words in chunks from a clone of
the population generator, decodes each chunk once with NumPy, and
serves every draw by indexing the decoded arrays.  With ``w`` the next
raw word:

* ``random()`` is ``(w >> 11) * 2**-53``;
* ``standard_normal()`` is NumPy's ziggurat.  Split as
  ``idx = w & 0xFF``, ``sign = (w >> 8) & 1`` and
  ``rabs = (w >> 9) & (2**52 - 1)``, the word gives ``±rabs * WI[idx]``
  when ``rabs < KI[idx]``.  Otherwise (about 1.5% of draws) NumPy's own
  ``standard_normal`` runs on a generator positioned at that word, and
  the stream skips the words it took;
* ``normal(loc, scale)`` is ``loc + scale * standard_normal()``;
* ``integers(n)`` is Lemire's method over ``next_uint32``, and
  ``shuffle`` is Fisher-Yates with masked rejection over it.
  ``next_uint32`` returns a word's low half and keeps the high half in
  PCG64's ``has_uint32``/``uinteger`` buffer for the next call; other
  draws leave the buffer alone, and using the half leaves ``uinteger``
  set;
* ``choice(options)`` is ``options[integers(len(options))]``.

:meth:`DrawStream.commit` advances the population generator by the
words the stream used and writes back the half-word buffer, so the
generator's state, its checkpoint and every later draw equal what the
same calls on the ``Generator`` would have left.

NumPy ships no source for the ziggurat tables.  :data:`KI` and
:data:`WI` were read off PCG64 by making it emit chosen words: a state
whose successor has a zero high half makes XSL-RR output the low half.
``WI[idx]`` is the draw at ``rabs = 1`` and ``KI[idx]`` the least
``rabs`` that takes a second word.  This is a second implementation of
NumPy's draws: ``tests/neat/test_draw_stream.py`` re-derives the tables
and pins the stream bit for bit to a twin ``Generator`` on generated
call programs, and the ``Generator`` stays the oracle.
"""

from __future__ import annotations

import math
from typing import Sequence, TypeVar, Union

import numpy as np

__all__ = ["CHUNK", "Draws", "DrawStream", "KI", "WI"]

T = TypeVar("T")

#: words decoded at a time
CHUNK = 1024

#: ``ki_double``: the ziggurat's fast path takes ``rabs < KI[idx]``
KI = (
    0x0EF33D8025EF6A, 0x00000000000000, 0x0C08BE98FBC6A8, 0x0DA354FABD8142,
    0x0E51F67EC1EEEA, 0x0EB255E9D3F77E, 0x0EEF4B817ECAB9, 0x0F19470AFA44AA,
    0x0F37ED61FFCB18, 0x0F4F469561255C, 0x0F61A5E41BA396, 0x0F707A755396A4,
    0x0F7CB2EC28449A, 0x0F86F10C6357D3, 0x0F8FA6578325DE, 0x0F9724C74DD0DA,
    0x0F9DA907DBF509, 0x0FA360F581FA74, 0x0FA86FDE5B4BF8, 0x0FACF160D354DC,
    0x0FB0FB6718B90F, 0x0FB49F8D5374C6, 0x0FB7EC2366FE77, 0x0FBAECE9A1E50E,
    0x0FBDAB9D040BED, 0x0FC03060FF6C57, 0x0FC2821037A248, 0x0FC4A67AE25BD1,
    0x0FC6A2977AEE31, 0x0FC87AA92896A4, 0x0FCA325E4BDE85, 0x0FCBCCE902231A,
    0x0FCD4D12F839C4, 0x0FCEB54D8FEC99, 0x0FD007BF1DC930, 0x0FD1464DD6C4E6,
    0x0FD272A8E2F450, 0x0FD38E4FF0C91E, 0x0FD49A9990B478, 0x0FD598B8920F53,
    0x0FD689C08E99EC, 0x0FD76EA9C8E832, 0x0FD848547B08E8, 0x0FD9178BAD2C8C,
    0x0FD9DD07A7ADD2, 0x0FDA9970105E8C, 0x0FDB4D5DC02E20, 0x0FDBF95C5BFCD0,
    0x0FDC9DEBB99A7D, 0x0FDD3B8118729D, 0x0FDDD288342F90, 0x0FDE6364369F64,
    0x0FDEEE708D514E, 0x0FDF7401A6B42E, 0x0FDFF46599ED40, 0x0FE06FE4BC24F2,
    0x0FE0E6C225A258, 0x0FE1593C28B84C, 0x0FE1C78CBC3F99, 0x0FE231E9DB1CAA,
    0x0FE29885DA1B91, 0x0FE2FB8FB54186, 0x0FE35B33558D4A, 0x0FE3B799D0002A,
    0x0FE410E99EAD7F, 0x0FE46746D47734, 0x0FE4BAD34C095C, 0x0FE50BAED29524,
    0x0FE559F74EBC78, 0x0FE5A5C8E41212, 0x0FE5EF3E138689, 0x0FE6366FD91078,
    0x0FE67B75C6D578, 0x0FE6BE661E11AA, 0x0FE6FF55E5F4F2, 0x0FE73E5900A702,
    0x0FE77B823E9E39, 0x0FE7B6E37070A2, 0x0FE7F08D774243, 0x0FE8289053F08C,
    0x0FE85EFB35173A, 0x0FE893DC840864, 0x0FE8C741F0CEBC, 0x0FE8F9387D4EF6,
    0x0FE929CC879B1D, 0x0FE95909D388EA, 0x0FE986FB939AA2, 0x0FE9B3AC714866,
    0x0FE9DF2694B6D5, 0x0FEA0973ABE67C, 0x0FEA329CF166A4, 0x0FEA5AAB32952C,
    0x0FEA81A6D5741A, 0x0FEAA797DE1CF0, 0x0FEACC85F3D920, 0x0FEAF07865E63C,
    0x0FEB13762FEC13, 0x0FEB3585FE2A4A, 0x0FEB56AE3162B4, 0x0FEB76F4E284FA,
    0x0FEB965FE62014, 0x0FEBB4F4CF9D7C, 0x0FEBD2B8F449D0, 0x0FEBEFB16E2E3E,
    0x0FEC0BE31EBDE8, 0x0FEC2752B15A15, 0x0FEC42049DAFD3, 0x0FEC5BFD29F196,
    0x0FEC75406CEEF4, 0x0FEC8DD2500CB4, 0x0FECA5B6911F12, 0x0FECBCF0C427FE,
    0x0FECD38454FB15, 0x0FECE97488C8B3, 0x0FECFEC47F91B7, 0x0FED1377358528,
    0x0FED278F844903, 0x0FED3B10242F4C, 0x0FED4DFBAD586E, 0x0FED605498C3DD,
    0x0FED721D414FE8, 0x0FED8357E4A982, 0x0FED9406A42CC8, 0x0FEDA42B85B704,
    0x0FEDB3C8746AB4, 0x0FEDC2DF416652, 0x0FEDD171A46E52, 0x0FEDDF813C8AD3,
    0x0FEDED0F909980, 0x0FEDFA1E0FD414, 0x0FEE06AE124BC4, 0x0FEE12C0D95A06,
    0x0FEE1E579006E0, 0x0FEE29734B6524, 0x0FEE34150AE4BC, 0x0FEE3E3DB89B3C,
    0x0FEE47EE2982F4, 0x0FEE51271DB086, 0x0FEE59E9407F41, 0x0FEE623528B42E,
    0x0FEE6A0B5897F1, 0x0FEE716C3E077A, 0x0FEE7858327B82, 0x0FEE7ECF7B06BA,
    0x0FEE84D2484AB2, 0x0FEE8A60B66343, 0x0FEE8F7ACCC851, 0x0FEE94207E25DA,
    0x0FEE9851A829EA, 0x0FEE9C0E13485C, 0x0FEE9F557273F4, 0x0FEEA22762CCAE,
    0x0FEEA4836B42AC, 0x0FEEA668FC2D71, 0x0FEEA7D76ED6FA, 0x0FEEA8CE04FA0A,
    0x0FEEA94BE8333B, 0x0FEEA950296410, 0x0FEEA8D9C0075E, 0x0FEEA7E7897654,
    0x0FEEA678481D24, 0x0FEEA48AA29E83, 0x0FEEA21D22E4DA, 0x0FEE9F2E352024,
    0x0FEE9BBC26AF2E, 0x0FEE97C524F2E4, 0x0FEE93473C0A3A, 0x0FEE8E40557516,
    0x0FEE88AE369C7A, 0x0FEE828E7F3DFD, 0x0FEE7BDEA7B888, 0x0FEE749BFF37FF,
    0x0FEE6CC3A9BD5E, 0x0FEE64529E007E, 0x0FEE5B45A32888, 0x0FEE51994E57B6,
    0x0FEE474A0006CF, 0x0FEE3C53E12C50, 0x0FEE30B2E02AD8, 0x0FEE2462AD8205,
    0x0FEE175EB83C5A, 0x0FEE09A22A1447, 0x0FEDFB27E349CC, 0x0FEDEBEA76216C,
    0x0FEDDBE422047E, 0x0FEDCB0ECE39D3, 0x0FEDB964042CF4, 0x0FEDA6DCE938C9,
    0x0FED937237E98D, 0x0FED7F1C38A836, 0x0FED69D2B9C02B, 0x0FED538D06AE00,
    0x0FED3C41DEA422, 0x0FED23E76A2FD8, 0x0FED0A732FE644, 0x0FECEFDA07FE34,
    0x0FECD4100EB7B8, 0x0FECB708956EB4, 0x0FEC98B61230C1, 0x0FEC790A0DA978,
    0x0FEC57F50F31FE, 0x0FEC356686C962, 0x0FEC114CB4B335, 0x0FEBEB948E6FD0,
    0x0FEBC429A0B692, 0x0FEB9AF5EE0CDC, 0x0FEB6FE1C98542, 0x0FEB42D3AD1F9E,
    0x0FEB13B00B2D4B, 0x0FEAE2591A02E9, 0x0FEAAEAE992257, 0x0FEA788D8EE326,
    0x0FEA3FCFFD73E5, 0x0FEA044C8DD9F6, 0x0FE9C5D62F563B, 0x0FE9843BA947A4,
    0x0FE93F471D4728, 0x0FE8F6BD76C5D6, 0x0FE8AA5DC4E8E6, 0x0FE859E07AB1EA,
    0x0FE804F690A940, 0x0FE7AB488233C0, 0x0FE74C751F6AA5, 0x0FE6E8102AA202,
    0x0FE67DA0B6ABD8, 0x0FE60C9F38307E, 0x0FE5947338F742, 0x0FE51470977280,
    0x0FE48BD436F458, 0x0FE3F9BFFD1E37, 0x0FE35D35EEB19C, 0x0FE2B5122FE4FE,
    0x0FE20003995557, 0x0FE13C82788314, 0x0FE068C4EE67B0, 0x0FDF82B02B71AA,
    0x0FDE87C57EFEAA, 0x0FDD7509C63BFD, 0x0FDC46E529BF13, 0x0FDAF8F82E0282,
    0x0FD985E1B2BA75, 0x0FD7E6EF48CF04, 0x0FD613ADBD650B, 0x0FD40149E2F012,
    0x0FD1A1A7B4C7AC, 0x0FCEE204761F9E, 0x0FCBA8D85E11B2, 0x0FC7D26ECD2D22,
    0x0FC32B2F1E22ED, 0x0FBD6581C0B83A, 0x0FB606C4005434, 0x0FAC40582A2874,
    0x0F9E971E014598, 0x0F89FA48A41DFC, 0x0F66C5F7F0302C, 0x0F1A5A4B331C4A,
)

#: ``wi_double``: the fast path's draw is ``±rabs * WI[idx]``
WI = (
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
)

#: what NEAT's operators draw from: a stream, or a ``Generator`` (tests
#: use one as the stream's oracle)
Draws = Union[np.random.Generator, "DrawStream"]

_KI = np.array(KI, dtype=np.uint64)
_WI = np.array(WI)
_EMPTY = memoryview(b"")
_SIGN = np.uint64(0x100)
_LOW = np.uint64(0xFFFFFFFF)
_MANTISSA = np.uint64((1 << 52) - 1)
_U32 = 0xFFFFFFFF
#: ``_MASKS[i]`` is the least all-ones mask ``>= i`` (``shuffle``)
_MASKS = [(1 << i.bit_length()) - 1 for i in range(256)]
#: PCG64's LCG: ``state * _MULT + inc`` mod ``2**128`` per word
_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


class DrawStream:
    """The ``Generator`` draws NEAT makes, served from decoded raw words.

    Open one over the population generator per evolve call, draw only
    through it, and :meth:`commit` it before anything else draws from
    that generator; a ``with`` block commits on exit, also when the
    block raises.  The generator's bit generator must be a ``PCG64``.
    """

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                "DrawStream draws PCG64 words, got "
                f"{type(bit_generator).__name__}"
            )
        self._bit_generator: np.random.PCG64 | None = bit_generator
        self._start = bit_generator.state
        self._source = np.random.PCG64(0)
        self._source.state = self._start
        self._probe: np.random.Generator | None = None
        self._has32: int = self._start["has_uint32"]
        self._half: int = self._start["uinteger"]
        #: words of the chunks before the current one
        self._base = 0
        #: the next word's index in the current chunk (beyond it after a
        #: slow path that ran past the chunk's end)
        self._pos = 0
        self._size = 0
        # the current chunk's 32-bit halves, doubles and fast-path
        # normals (NaN where the word takes the slow path); a memoryview's
        # item is a Python int or float, with no list built per chunk
        self._halves = self._doubles = self._normals = _EMPTY

    def __enter__(self) -> "DrawStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.commit()

    def commit(self) -> None:
        """Leave the population generator where the same draws on it
        would have, and release the decoded words."""
        bit_generator = self._bit_generator
        if bit_generator is None:
            raise RuntimeError("DrawStream was already committed")
        bit_generator.advance(self._base + self._pos)
        state = bit_generator.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._half
        bit_generator.state = state
        self._bit_generator = None
        self._source = self._probe = None
        self._size = 0
        self._halves = self._doubles = self._normals = _EMPTY

    # ------------------------------------------------------------ draws
    def random(self) -> float:
        """``Generator.random()``."""
        pos = self._pos
        if pos >= self._size:
            self._refill()
            pos = self._pos
        self._pos = pos + 1
        return self._doubles[pos]

    def standard_normal(self) -> float:
        """``Generator.standard_normal()``."""
        pos = self._pos
        if pos >= self._size:
            self._refill()
            pos = self._pos
        value = self._normals[pos]
        if value != value:
            return self._slow_normal(pos)
        self._pos = pos + 1
        return value

    def normal(self, loc: float, scale: float) -> float:
        """``Generator.normal(loc, scale)``, which rejects a negative
        ``scale``, ``-0.0`` included."""
        if scale < 0 or (scale == 0 and math.copysign(1.0, scale) < 0):
            raise ValueError("scale < 0")
        return loc + scale * self.standard_normal()

    def integers(self, high: int) -> int:
        """``Generator.integers(high)`` for ``1 <= high <= 2**32``."""
        if high <= 1:
            if high == 1:
                return 0
            raise ValueError("high <= 0")
        if high >= 0x100000000:
            if high > 0x100000000:
                raise ValueError("DrawStream.integers takes high <= 2**32")
            return self._next_uint32()
        # Lemire: the high half of a 32x32-bit product, rejecting the
        # low halves below 2**32 mod high
        product = self._next_uint32() * high
        if product & _U32 < high:
            threshold = (0x100000000 - high) % high
            while product & _U32 < threshold:
                product = self._next_uint32() * high
        return product >> 32

    def choice(self, options: Sequence[T]) -> T:
        """``Generator.choice(options)`` of a non-empty sequence."""
        return options[self.integers(len(options))]

    def shuffle(self, items: list) -> None:
        """``Generator.shuffle(items)`` of a list, in place: for ``i``
        from the back, ``j = next_uint32() & mask`` until ``j <= i``,
        then swap items ``i`` and ``j``."""
        i = len(items) - 1
        if i < 1:
            return
        masks = _MASKS if i < len(_MASKS) else [
            (1 << k.bit_length()) - 1 for k in range(i + 1)
        ]
        if self._has32:
            self._has32 = 0
            j = self._half & masks[i]
            if j <= i:
                items[i], items[j] = items[j], items[i]
                i -= 1
        # then the chunk's halves from ``h`` on: word k's low half is
        # ``halves[2k]`` and its high half ``halves[2k + 1]``
        halves, limit = self._halves, 2 * self._size
        h = entry = 2 * self._pos
        try:
            while i > 0:
                if h >= limit:
                    self._pos = h // 2
                    self._refill()
                    halves, limit = self._halves, 2 * self._size
                    h, entry = 2 * self._pos, -1
                j = halves[h] & masks[i]
                h += 1
                if j <= i:
                    items[i], items[j] = items[j], items[i]
                    i -= 1
        finally:
            # a low half taken last leaves its high half buffered
            self._pos = (h + 1) // 2
            if h % 2:
                self._has32, self._half = 1, halves[h]
            elif h != entry:
                self._half = halves[h - 1]

    # ---------------------------------------------------------- words
    def _next_uint32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._half
        pos = self._pos
        if pos >= self._size:
            self._refill()
            pos = self._pos
        self._pos = pos + 1
        self._has32, self._half = 1, self._halves[2 * pos + 1]
        return self._halves[2 * pos]

    def _refill(self) -> None:
        """Decode the chunk that holds the next word."""
        source = self._source
        if source is None:
            raise RuntimeError("DrawStream was committed")
        while self._pos >= self._size:
            self._base += self._size
            self._pos -= self._size
            words = source.random_raw(CHUNK)
            self._size = CHUNK
        index = words.astype(np.uint8)
        rabs = (words >> np.uint64(9)) & _MANTISSA
        normals = rabs * _WI.take(index)
        # the sign: bit 8 of the word to bit 63 of the (positive) double
        normals.view(np.uint64)[...] |= (words & _SIGN) << np.uint64(55)
        normals[rabs >= _KI.take(index)] = np.nan
        halves = np.empty(2 * CHUNK, dtype=np.uint32)
        halves[0::2] = words & _LOW
        halves[1::2] = words >> np.uint64(32)
        self._halves = memoryview(halves)
        self._doubles = memoryview((words >> np.uint64(11)) * 2.0**-53)
        self._normals = memoryview(normals)

    def _slow_normal(self, pos: int) -> float:
        """The ziggurat's slow path from the word at ``pos``: NumPy's
        own ``standard_normal`` on a generator positioned there."""
        probe = self._probe
        if probe is None:
            probe = self._probe = np.random.Generator(np.random.PCG64(0))
        bit_generator = probe.bit_generator
        bit_generator.state = self._start
        bit_generator.advance(self._base + pos)
        at = bit_generator.state["state"]["state"]
        value = probe.standard_normal()
        end = bit_generator.state["state"]["state"]
        inc = self._start["state"]["inc"]
        while at != end:
            at = (at * _MULT + inc) & _MASK128
            pos += 1
        self._pos = pos
        return value
