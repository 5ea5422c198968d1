"""numpy's random streams, computed many at once over uint64 arrays.

A run draws every random quantity from split streams of its seed: the
stream of the entropy words `(seed, *key)` is numpy's
`default_rng(SeedSequence([seed, *key]))`. This module computes those
streams itself, and every value equals numpy's bit for bit (the tests check
them against the installed numpy). What it ports:

  * SeedSequence: the hash of the entropy words into a pool of four 32-bit
    words, and the 256 bits of seed it generates from the pool;
  * PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
    Statistically Good Algorithms for Random Number Generation", 2014): the
    128-bit LCG s -> a s + inc mod 2**128, a = MULTIPLIER, seeded as numpy
    seeds it, whose output is the XSL-RR of the state after each step;
  * Generator.random(): an output's top 53 bits times 2**-53;
  * Generator.exponential(1.0, k): numpy's 256-level ziggurat (Marsaglia and
    Tsang, "The Ziggurat Method for Generating Random Variables", 2000) and
    its tables. About 2.2% of attempts take the slow path, which draws once
    more: for the tail (level 0) or for the wedge test, and a failed wedge
    test restarts the attempt. The slow path calls math.exp and math.log1p,
    libm's exp and log1p, as numpy's C code does.

The 128-bit arithmetic is on (hi, lo) pairs of uint64 arrays, through 32-bit
limbs. A stream only ever goes forward. A draw computes its states at once: a
jump of k steps is the affine map s -> a**k s + inc (1 + a + ... + a**(k-1))
mod 2**128, and the streams, each with its own inc, apply the jumps of
1..BASE_ROWS steps with their own addends, kept, then double from there by
jumps of powers of two: the states after k+1..2k steps are those after 1..k
steps jumped k more. A skip of k outputs computes none of them: it is one
jump of k steps.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's, numpy's too

# SeedSequence's hash constants, from numpy's bit_generator.pyx
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Device-draws computed at once: each temporary array is at most 64 KiB.
TILE = 8192
# Each stream keeps its addends of 1..BASE_ROWS steps, all streams in at most
# BASE_BYTES, and steps from them by one product per state. Fewer kept rows
# cost doublings: at 128 and 256 KiB, 200 streams keep 32 and 64 rows for
# draws of 87 steps, against 128, and the fading draws of a 200-device x
# 500-slot run took 3.4 and 2.8 ms (17% and 14%) longer, in 12 of 12 and 11 of
# 12 interleaved rounds on a 2-CPU x86 host, to hold 300 and 200 KiB less.
BASE_ROWS = TILE
BASE_BYTES = 1 << 19

# numpy's ziggurat_constants.h (BSD-3-Clause, Copyright (c) 2005-2024, NumPy
# Developers), little-endian: fe_double and we_double, 256 float64 each, then
# ke_double, 256 uint64.
_ZIGGURAT = bytes.fromhex("""
000000000000f03f371188e54505ee3ff1ff8150a6d0ec3f277beb7b00e5eb3f2a7fe60e0f21eb3fe7fa62a5ba76ea3f
9b6d551597dee93f39aa55c43154e93f2fd2d376a3d4e83fb8c50678e85de83f2631242d8aeee73f7ed4099b6e85e73f
634ba95bbb21e73fc6188449c3c2e63f065c4f6dfa67e63f66afa7c1ed10e63f75ac4c693dbde53f7387da82986ce53f
9a897815ba1ee53faff851c166d3e43f69e08efb6a8ae43f25e1a8af9943e43f808bb12bcbfee33f14d1e144dcbbe33f
d9dd08a7ad7ae33f18630e45233be33f5eda45e323fde23f244f1fb698c0e23fbd3211116d85e23fa3508c228e4be23f
c83e81baea12e23f897b871973dbe13f253b1ec718a5e13fee6fce6dce6fe13f9c1633bc873be13f8dc31c4a3908e13f
2b1e2b81d8d5e03f2ad054885ba4e03f7d3bee31b973e03f4865d2ebe843e03f24f360b1e214e03f764521fe3dcddf3f
fac5bf8e2d72df3f4d42ebd18618df3f909d964b3dc0de3f51d37d364569de3ffc37e1759313de3f0c21a7881dbfdd3f
7aedb97dd96bdd3f0b1a7ee9bd19dd3f92e040dcc1c8dc3f60fb83d9dc78dc3f83a50ed0062adc3fb5eeae1238dcdb3f
880b9951698fdb3f6f8054949343db3f5fef2834b0f8da3fe5f6fdd6b8aeda3f4001a36aa765da3ff4217520761dda3f
92375a691fd6d93fa87b09f29d8fd93f10819a9fec49d93f045d548c0605d93f395db704e7c0d83f8c3fbc84897dd83f
386144b5e93ad83f59ceb66903f9d73f1e80c69dd2b7d73fe3725e735377d73fea8db0308237d73f9d9e643e5bf8d63f
9ce9e425dbb9d63f9f0dc68ffe7bd63fe4274842c23ed63f7658ef1f2302d63f6cee31261ec6d53fefa93a6cb08ad53f
e7a3bd21d74fd53ff589de8d8f15d53f1df9260ed7dbd43fd3da8b15aba2d43fefbe802b096ad43fe24118ebee31d43f
4ea130025afad33f85b2ab3048c3d33fef7db147b78cd33fddd0fc28a556d33f352431c60f21d33f70423920f5ebd23f
6222ae4653b7d23f297645572883d23ffd76477d724fd23fff7e0bf12f1cd23fdb097bf75ee9d13f5abc9ae1fdb6d13f
8219190c0b85d13fef91e2de8453d13fba9fbacc6922d13f6ca6d952b8f1d03f33538ff86ec1d03f133ee94e8c91d03f
d2905df00e62d03f2c7c7980f532d03f6a4793ab3e04d03f5493ff4cd2abcf3f7e3e965ce74fcf3f9be0e80fbaf4ce3f
f2405900489ace3fa7832fd68e40ce3f394f22488ce7cd3fb8eee31a3e8fcd3ffd31b420a237cd3f9fd0f638b6e0cc3f
0218ce4f788acc3feeafb95de634cc3f35443967fedfcb3fa5e4727cbe8bcb3f3eefdcb82438cb3f0b5beb422fe5ca3f
493cc04bdc92ca3fbc5cdf0e2a41ca3f12c5e4d116f0c93f23163ee4a09fc93fa192e69ec64fc93f79bb25648600c93f
d562509fdeb1c83ff91a8cc4cd63c83fe6e794505216c83fae1b85c86ac9c73ffe469fb9157dc73f39281ab95131c73f
ea84ee631de6c63f28daa65e779bc63facd130555e51c63f316ab0fad007c63fb6c25409cebec53ff5782e425476c53f
498c076d622ec53ffab63c58f7e6c43f963098d811a0c43fc6cc2dc9b059c43f9a6a380bd313c43f05a9f88577cec33f
c9d594269d89c33faf0cfadf4245c33f6e7dbeaa6701c33f34cf04850abec23f409960722a7bc23f78e8bb7bc638c23f
65ca3dafddf6c13f66d631206fb5c13f78aef0e67974c13f2f71c920fd33c13f2017eceff7f3c03f2fb6547b69b4c03f
bea5b7ee5075c03f047f6e7aad36c03f8deacba6fcf0bf3f140419668575bf3f3cc383aef3fabe3fccb98e044681be3f
fbba61f57a08be3f9893ad169190bd3fd74d91068719bd3f57fd806b5ba3bc3faf102ef40c2ebc3f8f2671579ab9bb3f
486535540246bb3f655465b143d3ba3fb738d93d5d61ba3f28f446d04df0b93f706b33471480b93fb974e588af10b93f
3b535a831ea2b83fbac43b2c6034b83ff3a6d78073c7b73f1e3c1986575bb73fb61684480bf0b63f20b630dc8d85b63f
f7deca5cde1bb63f3ebb91edfbb2b53f36d059b9e54ab53f29d990f29ae3b43f5c9843d31a7db43f0eb1259d6417b43f
9e9f9b9977b2b33f18e7c619534eb33fd18d9476f6eab23f7005ce106188b23f8c9d2c519226b23f40a36fa889c5b13f
9253758f4665b13f50ca5687c805b13f3b1b87190fa7b03f17c8f5d71949b03f769669bad0d7af3f34e84499f41eaf3f
e5b22ea59e67ae3f10583149ceb1ad3f4a791e0383fdac3fe9210764bc4aac3f85d9be107a99ab3f84806ac2bbe9aa3f
38f11b47813baa3f4c7c7b82ca8ea93f6d77806e97e3a83f6b393a1ce839a83f9e08abb4bc91a73f52afb67915eba63f
41a026c7f245a63fcad2c51355a2a53febc596f23c00a53f196b2614ab5fa43fff18ff47a0c0a33fae143f7e1d23a33f
0cc056c92387a23fd412f35fb4eca13fa1b3199fd053a13f51d67c0c7abca03feefa0d59b226a03f9098afc7f6249f3f
6874517aaeff9d3f0c1b335490dd9c3f7058fa50a1be9b3f9b4e92e6e6a29a3f482a130f678a993f6799ec532875983f
96fc87da3163973f7740a2728b54963f5102aba63d49953fbef087ce5141943f845d3125d23c933f323ab9e1c93b923f
5f5f7254453e913ff0021e095244903fcec789defd9b8e3f57276e14b9b68c3f2dc94255fad88a3fbda78f68ea02893f
f574aae6b634873fcb16e40b936e853f626f51c1b8b0833f7176b3ed69fb813ff9d75f29f24e803fc55d74fa51577d3f
364897d4e9237a3f2036ec379f04773ffd22e3ce97fa733f434057693d07713f114bcd81b3586c3ffffea1f388d8663f
24a3e1a86b94613f253e0c54b52b593fb9fc8df70ab24f3f4b0b9f321cc33d3fc15dbf94ec64d13c19415d8b9d58603c
2b4d5b49b2d66a3cba8d5ba93593713c732a4ae5e622753c807ac2fb9050783cccb779efd1387b3c98bd6db7d8ec7d3c
3c5cc649f03b803c70f6d624db70813c3326da900298823cca6e3dfe88b3833c21fe0bc615c5843cc34a029df8cd853c
bd2ba7f040cf863c19d017dacdc9873c6f60d35459be883cd237225580ad893c03525dbec8978a3cc4a3dddda57d8b3c
893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c0932685dd2c48f3c58756aed764b903c
fc809b4748b3903caff54987f319913ca0df4beb8c7f913ce7493ee926e4913c2eff3865d247923c0b6823e19eaa923c
4bda26a59a0c933c02826de2d26d933ca06221d153ce933c486770ca282e943c12e7355f5c8d943c930bcd6bf8eb943c
4d6f7829064a953cfdbeb83d8ea7953ccf2eddc79804963ce0680c6d2d61963c44a9fa6253bd963cbb9079791119973c
737907236e74973c72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c2ac5d05088de983c44a2fdbd5338993c
3813ad42de91993cbf03ff752ceb993c4a8814be42449a3c61d29653259d9a3cc924f244d8f59a3c9b974c795f4e9b3c
898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3cdb5ac22b10af9c3cfbe6f08ef2069d3c8d6bd8f1bd5e9d3c
5790426a75b69d3cfe317cf71b0e9e3c4410cf83b4659e3c621be2e541bd9e3c9f9402e2c6149f3cb5fe572b466c9f3c
a1a90465c2c39f3cd93c9a119f0da03c62b10df65d39a03cf876721c1f65a03c72004bbbe390a03c37017103adbca03c
662f7a207ce8a03c15ac17395214a13cbe7d706f3040a13cfb7f77e1176ca13c96233da90998a13c83523ddd06c4a13c
e2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23caacd8b74c9a0a23c5d3ba56421cda23c
211703118cf9a23c1176fb7c0a26a33ca11b8aaa9d52a33cf01a859a467fa33cfcefcf4c06aca33c6d338dc0ddd8a33c
c4094ff4cd05a43cd06c46e6d732a43ca76c7194fc5fa43cc483c8fc3c8da43ca4186b1d9abaa43cea45cbf414e8a43c
fb00d981ae15a53cf8b52cc46743a53c276f31bc4171a53cf99c4e6b3d9fa53c359311d45bcda53c26cf56fa9dfba53c
2e1a73e3042aa63c8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c08a659cb24e5a63cfba950115314a73c
1c04fa61ac43a73c30d177d13173a73c0a24b176e4a2a73cf7177d6bc5d2a73c7772ceccd502a83c2ae6dfba1633a83c
e70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c1315fef316f6a83ce1738e045c27a93c8a8235b2d858a93c
f4bb40398e8aa93c5d03c7da7dbca93c51e9dddca8eea93c2d59d08a1021aa3c90c65635b653aa3c0ff3d0329b86aa3c
7a6581dfc0b9aa3cffacca9d28edaa3cb58b6ed6d320ab3c4225cff8c354ab3cb64f327bfa88ab3c102607db78bdab3c
85fd2d9d40f2ab3c2de0424e5327ac3ca4b1ea82b25cac3cfb2323d85f92ac3c6ca595f35cc8ac3c8071ed83abfeac3c
adf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c7f35d24a37dbad3c9b5026b43713ae3c52a4167c944bae3c
7f23f49a4f84ae3c78764a156bbdae3c68915bfce8f6ae3c7fbca06ecb30af3cd05e5198146baf3ce5e1efb3c6a5af3c
d809dd0ae4e0af3cd411f97a370eb03c1b3911ef342cb03ca324929e6b4ab03cdb2611cfdc68b03c0fad3acf8987b03c
19c833f773a6b03c6f9400a99cc5b03cb7cfef5005e5b03cceef0b66af04b13c4a15926a9c24b13c2b3a6feccd44b13c
c104c4854565b13c9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c70339baa02eab13ca2f4f093f20bb23c
50e54f52332eb23cba3b40e6c650b23ca6dac761af73b23c2b5342e9ee96b23c51db45b487bab23c702d960e7cdeb23c
65592659ce02b33cd0a72a0b8127b33c65c93bb3964cb33c56a88cf81172b33c4351349cf597b33c838b8d7a44beb33c
d0dead8c01e5b33cadeef5e92f0cb43cf842bdc9d233b43c2cc91b85ed5bb43c3294d3988384b43c4ca15da798adb43c
27b11c7b30d7b43c0895b9084f01b53cb2aaac71f82bb53c5aa7f8063157b53c61441b4cfd82b53c07e138fa61afb53c
9ebd880364dcb53c79180897080ab63c942e7b245538b63c32f4c3604f67b63cee48974afd96b63c1e7b9a2f65c7b63c
0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73cd376147d47c5b73c12146ee9a3fab73c
c3bec02cf130b83c427368063968b83cab5b69ce85a0b83c95363b82e2d9b83c4475f3d25a14b93c0e2afc34fb4fb93c
d81a8df1d08cb93cead9243aeacab93c78f1493e560aba3c3b4ce843254bba3cea86adc2688dba3cc445d88233d1ba3c
0ab603c09916bb3c0fea9150b15dbb3c5eda76d291a6bb3c77ef4bde54f1bb3ca7e0c241163ebc3cf4c8c842f48cbc3c
7fa9f2ec0fdebc3cc538276b8d31bd3cec3bec6f9487bd3c9ff14eaf50e0bd3c6009196ef23bbe3cc183f32aaf9abe3c
4aea5067c2fcbe3ca7f791976e62bf3ce5c6f643fecbbf3c2eec62b3e21cc03cef8ef58b1156c03c4ea5cbcdc191c03c
a0485d7831d0c03ca6924303a811c13c2a4475677856c13cd6c2b3bc039fc13c7cfac9a0bcebc13c9f9159b62b3dc23c
a5aa49aef593c23cf011448ae3f0c23c5ef7cc27ee54c33c61b8c8c74ec1c33c6213e4669737c43cd15147cdd7b9c43c
f673cf3cd84ac53cd21373e17aeec53c72bf4b6d67aac63c2fc6ead65087c73c19edf2e69f93c83c857b480ddce9c93c
fc71da519ec3cb3c83bb7e29d9c9ce3cc697242714521c0000000000000000007e319cd75b7d1300103c3f8ef56e1800
aeb00e32b79b1a007c4419f727d11b001a65880f1d951c0072395c2dfe1b1d00b2186bd55b7e1d00702c17dd34c91d00
c89dacdf09041e003678d4717b331e00a2b77c178b5a1e006c046f09427b1e003eae08af0d971e009ef04eb1f5ae1e00
5665b407bdc31e00ce9987f0f6d51e0088566eae14e61e00d01c36ca6ef41e00a4d4dd764b011f00b696a713e30c1f00
7af7f16963171f007025450cf2201f0074a85119ae291f003255b98fb1311f0006c1575112391f004c696eebe23f1f00
fa88d73233461f000e3a1dbf104c1f0022335c4c87511f00c0ecc309a1561f00969909d9665b1f008cd01082e05f1f00
725744dd14641f00789685f609681f00e6022b2ac56b1f00f4e4323d4b6f1f003af19071a0721f00d6094d97c8751f00
c05c041bc7781f00f43f41129f7b1f008a9f0746537e1f003811e23be6801f006291ad3d5a831f0012b95660b1851f00
6242b289ed871f00fa749375108a1f00ac393dba1b8c1f004ad045cc108e1f00163e0102f18f1f00e0588396bd911f00
d8af47ac77931f00da648b4f20951f0092386378b8961f009288960c41981f0080ba46e1ba991f00007f69bc269b1f00
7a711b56859c1f0002d8cf59d79d1f00cea161671d9f1f00c036091458a01f0038333aeb87a11f00fcc46b6fada21f00
8206ce1ac9a31f00a26aee5fdba41f007c094daae4a51f008267e45ee5a61f00c41ea5dcdda71f0074a8e67ccea81f00
ee5fce93b7a91f0058b8ad7099aa1f003282585e74ab1f00840574a348ac1f00e89fbf8216ad1f00c082573bdead1f00
6c1df208a0ae1f007eb018245caf1f00127a5bc212b01f00f4df8116c4b01f00faf1b65070b11f003a96b29e17b21f00
4aa8df2bbab21f00184e7f2158b31f000cbec9a6f1b31f00d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f00
58fe37282eb61f000a01c988b3b61f009807b53f35b71f00a87ddc68b3b71f0008bad61e2eb81f00f647037ba5b81f00
740f9a9519b91f000472ba858ab91f00266f7961f8b91f0086e2ee3d63ba1f0016ec412fcbba1f004491b44830bb1f00
e2a4ae9c92bb1f009e02c83cf2bb1f009429d2394fbc1f00d440e1a3a9bc1f009e8f548a01bd1f009c72defb56bd1f00
6ad68b06aabd1f00403fcbb7fabd1f00de64731c49be1f005e69c94095be1f0028b18630dfbe1f007461def626bf1f00
e28a829e6cbf1f00c404a931b0bf1f00b0fd0fbaf1bf1f008845024131c01f00b2545bcf6ec01f0026148b6daac01f00
8a699923e4c01f00648a29f91bc11f0042197df551c11f004a0f771f86c11f00b4749e7db8c11f0042ea2016e9c11f00
de05d5ee17c21f00fe833c0d45c21f00c24f867670c21f000e63902f9ac21f004680e93cc2c21f00b4c6d2a2e8c21f00
ec2241650dc31f000e9cde8730c31f00c67e0b0e52c31f00f866dffa71c31f0086282a5190c31f00fa977413adc31f00
48330144c8c31f0040abcce4e1c31f00a84d8ef7f9c31f006050b87d10c41f0068fd777825c41f00c6bfb5e838c41f00
2a1115cf4ac41f00e847f42b5bc41f0004456cff69c41f00b201504977c41f00b8fb2b0983c41f00f67f453e8dc41f00
1ad299e795c41f00b030dd039dc41f0032b47991a2c41f00fc078e8ea6c41f008cfbebf8a8c41f009eea16cea9c41f00
34fa410ba9c41f00a0284eada6c41f00742ec8b0a2c41f00e22de6119dc41f00f42d85cc95c41f00c05e26dc8cc41f00
7a23ec3b82c41f00e6de96e675c41f00827e81d667c41f0036c09d0558c41f00202e706d46c41f0098cb0b0733c41f00
0e6e0dcb1dc41f00f6bb96b106c41f0062cb48b2edc31f003c593ec4d2c31f00b49105deb5c31f004c6199f596c31f00
92455a0076c31f00709306f352c31f001828b2c12dc31f008878bd5f06c31f0062f2cbbfdcc21f009e9fb9d3b0c21f00
f0fc8f8c82c21f0064f179da51c21f009ed3b6ac1ec21f0056678cf1e8c11f003cbb3796b0c11f0010cddc8675c11f00
b6d674ae37c11f001424bbf6f6c01f00a44d1848b3c01f00f0af8b896cc01f0064f392a022c01f00b8720f71d5bf1f00
8e4829dd84bf1f000ac62fc530bf1f00c60c7707d9be1f00da7d32807dbe1f0014a64b091ebe1f000844357ababd1f00
26f8b9a752bd1f001a20c663e6bc1f00e44d2c7d75bc1f00aab763bfffbb1f00a2e63ff284bb1f008cd1a0d904bb1f00
ac701a357fba1f0018b692bff3b91f00fcabd42e62b91f00164a1733cab81f00545b76762bb81f005c895b9c85b71f00
9455d540d8b61f004269d9f722b61f00e0376f4c65b51f00d269bfbf9eb41f0046e703c8ceb31f003e9c53cff4b21f00
5228443210b21f0004965a3e20b11f00c2e1423024b01f00a679c4311baf1f0004e1675704ae1f00722dbf9ddeac1f00
0a0640e6a8ab1f0028ff99f361aa1f00a2666f6508a91f003c8d50b39aa71f0014f2d12617a61f0000ea8bd47ba41f00
94c0c593c6a21f0014f37df4f4a01f000abe6b33049f1f00bcf9792bf19c1f00c4ab1544b89a1f00b82f785b55981f00
783fd0abc3951f00f2f1cea9fd921f001ce49adafc8f1f00f885739eb98c1f00069647ec2a891f008edb04f945851f00
9a0336c3fd801f0026e93978427c1f00cc2a58a300771f001c241a0f20711f002a35b734826a1f0066e2a80000631f00
c4e34f90665a1f007211ce4e72501f00da6f5c66c7441f00a2598aa3e5361f000a34503414261f0014047b043e111f00
e6cb57faaef61e001e1588a18cd31e00b02d121ea6a21e007c268bc761591e00b00bac2bf6dd1d00c0e8e4d94ddb1c00
""")
FE = np.frombuffer(_ZIGGURAT, "<f8", 256, 0).astype(np.float64)
WE = np.frombuffer(_ZIGGURAT, "<f8", 256, 2048).astype(np.float64)
KE = np.frombuffer(_ZIGGURAT, "<u8", 256, 4096).astype(np.uint64)
ZIGGURAT_EXP_R = 7.69711747013104972


def _words(value) -> list:
    """SeedSequence's 32-bit words of one entropy entry, least significant
    first: of a non-negative int, or of each element of an array of
    non-negative ints below 2**32, as one uint64 array."""
    if isinstance(value, np.ndarray):
        if value.size and not 0 <= int(value.min()) <= int(value.max()) <= M32:
            raise ValueError("an array entropy entry must hold non-negative ints below 2**32")
        return [value.astype(np.uint64)]
    if value < 0:
        raise ValueError("an entropy entry must be a non-negative int")
    words = [value & M32]
    while value := value >> 32:
        words.append(value & M32)
    return words


def _seed(entropy: tuple) -> list:
    """numpy's SeedSequence(entropy).generate_state(4, np.uint64): four words,
    each an int, or a uint64 array where an entry of the entropy is one."""
    words = [w for value in entropy for w in _words(value)]
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * MULT_B & M32
        value = value * hash_const & M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _affine(hi, lo, m, add_hi, add_lo, out_hi=None, out_lo=None):
    """(hi, lo) * m + (add_hi, add_lo) mod 2**128, into (out_hi, out_lo) if
    given: each pair a 128-bit number as its high and low uint64 words, and
    m an int or a pair (m_hi, m_lo) of arrays. Arrays broadcast; the addend
    may be ints. The high word of the low words' product is made of 32-bit
    limbs (Hacker's Delight, mulhi)."""
    m_hi, m_lo = (m >> 64, m & M64) if isinstance(m, int) else m
    m0, m1 = m_lo & M32, m_lo >> 32
    low, high = lo & M32, lo >> 32
    cross = high * m0
    high = np.multiply(high, m1, out=out_hi)
    low_m1 = low * m1
    low = low * m0
    low >>= 32
    cross += low
    low_m1 += cross & M32
    cross >>= 32
    low_m1 >>= 32
    high += cross
    high += low_m1  # the high word of lo * m_lo
    if not isinstance(m_hi, int) or m_hi:
        high += lo * m_hi
    high += hi * m_lo
    high += add_hi
    out_lo = np.multiply(lo, m_lo, out=out_lo)
    out_lo += add_lo
    high += out_lo < add_lo  # the carry of the low words
    return high, out_lo


def _walk(out_hi, out_lo, done: int, pluses) -> None:
    """Fill in the states of streams after done+1.. steps, in (streams, steps)
    arrays whose first `done` columns (a power of two) hold those after
    1..done steps, by doubling; pluses[i] holds each stream's inc (1 + a +
    ... + a**(2**i - 1)), the addend of a jump of 2**i steps."""
    steps = out_hi.shape[1]
    while done < steps:
        cols, level = min(done, steps - done), done.bit_length() - 1
        plus_hi, plus_lo = pluses[level]
        _affine(out_hi[:, :cols], out_lo[:, :cols], _JUMP_MULTS[level], plus_hi[:, None],
                plus_lo[:, None], out_hi[:, done:done + cols], out_lo[:, done:done + cols])
        done += cols


def _jump(steps: int):
    """a**steps and G(steps) = 1 + a + ... + a**(steps-1) mod 2**128, as ints:
    the jumps of the powers of two in steps, composed (Brown, "Random Number
    Generation with Arbitrary Strides", 1994)."""
    mult, plus, power, power_plus = 1, 0, MULTIPLIER, 1
    while steps:
        if steps & 1:
            mult, plus = mult * power & M128, (plus * power + power_plus) & M128
        power_plus = power_plus * (power + 1) & M128  # G(2k) = G(k) (a**k + 1)
        power = power * power & M128
        steps >>= 1
    return mult, plus


# each jump _walk makes, of k = 2**i steps: a**k and G(k)
_JUMP_MULTS, _JUMP_PLUSES = zip(*(_jump(1 << i) for i in range((TILE - 1).bit_length())))


@lru_cache(maxsize=1)
def _table():
    """The multipliers a**j and the sums 1 + a + ... + a**(j-1) of the maps of
    j = 1..BASE_ROWS steps, as (hi, lo) words: the states of a stream from 1
    with increment 0, and of one from 0 with increment 1."""
    hi, lo = np.empty((2, BASE_ROWS), np.uint64), np.empty((2, BASE_ROWS), np.uint64)
    hi[:, 0], lo[:, 0] = [MULTIPLIER >> 64, 0], [MULTIPLIER & M64, 1]
    pluses = [(np.array([0, p >> 64], np.uint64), np.array([0, p & M64], np.uint64))
              for p in _JUMP_PLUSES]  # those of increments 0 and 1: 0 and the sums
    _walk(hi, lo, 1, pluses)
    hi.flags.writeable = lo.flags.writeable = False  # shared by every caller
    return hi[0], lo[0], hi[1], lo[1]


def _xsl_rr(hi, lo):
    """PCG64's output of each state: the xor of its words rotated right by
    its top 6 bits."""
    word = hi ^ lo
    rot = hi >> 58
    out = word >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    word <<= rot
    out |= word
    return out


def _doubles(raw):
    """Generator.random() of each output: its top 53 bits times 2**-53."""
    raw >>= 11
    out = raw.astype(np.float64)
    out *= 1.0 / 9007199254740992.0
    return out


class Streams:
    """PCG64 streams: those of numpy's default_rng(SeedSequence(entropy)).
    The entries of `entropy` are ints; the last may be an array of ints below
    2**32, one stream per element. A draw of k values from each stream gives
    a (k, streams) array, column j the next k values of stream j, and each
    stream's draws go on where its last draw stopped. A stream only ever goes
    forward: by jumps of powers of two inside one draw, and by one jump of k
    steps in skip(k), which passes over k outputs without computing them.
    """

    def __init__(self, *entropy):
        self.n = max((np.size(value) for value in entropy), default=1)
        self.hi, self.lo, self.inc_hi, self.inc_lo = np.empty((4, self.n), np.uint64)
        array = bool(entropy) and isinstance(entropy[-1], np.ndarray)
        for c0 in range(0, self.n, TILE):  # TILE streams at a time: small temporaries
            cols = slice(c0, c0 + TILE)
            tile = (*entropy[:-1], entropy[-1][cols]) if array else entropy
            w0, w1, w2, w3 = (np.full(len(self.hi[cols]), w, np.uint64) for w in _seed(tile))
            # numpy's pcg64_set_seed: inc = 2 seq + 1 and s = (inc + state) a + inc,
            # from state = w0:w1 and seq = w2:w3
            inc = self.inc_hi[cols], self.inc_lo[cols]
            np.bitwise_or(w2 << 1, w3 >> 63, out=inc[0])
            np.bitwise_or(w3 << 1, 1, out=inc[1])
            _affine(*_affine(*inc, 1, w0, w1), MULTIPLIER, *inc, self.hi[cols], self.lo[cols])
        self._pluses = []  # each stream's addends of jumps of 1, 2, 4, ... steps
        self._base = None  # each stream's addends of 1..BASE_ROWS steps

    def skip(self, steps: int) -> None:
        """Advance every stream by `steps` outputs without computing them: one
        jump of each stream's state, s -> a**steps s + inc G(steps)."""
        mult, plus = _jump(steps)
        add = _affine(self.inc_hi, self.inc_lo, plus, 0, 0)
        self.hi[:], self.lo[:] = _affine(self.hi, self.lo, mult, *add)

    def _states(self, cols, steps: int):
        """The states of the streams `cols` (a slice or an index array) after
        1..steps steps, as two (streams, steps) arrays: the multipliers of
        1..BASE_ROWS steps applied to their states, plus their own addends,
        computed once, then doubling."""
        streams = len(self.hi[cols])
        # the longer axis in memory order: numpy is slow along a short one
        step_major = steps < streams
        shape = (steps, streams) if step_major else (streams, steps)
        out_hi, out_lo = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
        if step_major:
            out_hi, out_lo = out_hi.T, out_lo.T
        a_hi, a_lo, g_hi, g_lo = _table()
        if self._base is None:
            rows = max(1, min(BASE_ROWS, BASE_BYTES // (16 * self.n)))
            rows = 1 << (rows.bit_length() - 1)
            self._base = self._addends(g_hi[:rows], g_lo[:rows])
        done = min(steps, self._base[0].shape[1])

        def laid(x):  # x in the memory order of the states
            return x.T if step_major else x

        _affine(laid(self.hi[cols, None]), laid(self.lo[cols, None]),
                (laid(a_hi[None, :done]), laid(a_lo[None, :done])),
                laid(self._base[0][cols, :done]), laid(self._base[1][cols, :done]),
                laid(out_hi[:, :done]), laid(out_lo[:, :done]))
        for plus in _JUMP_PLUSES[len(self._pluses):(steps - 1).bit_length()]:
            hi, lo = self._addends(np.uint64(plus >> 64), np.uint64(plus & M64))
            self._pluses.append((hi[:, 0], lo[:, 0]))
        _walk(out_hi, out_lo, done, [(hi[cols], lo[cols]) for hi, lo in self._pluses])
        return out_hi, out_lo

    def _addends(self, g_hi, g_lo):
        """Each stream's addends inc G of the jumps whose sums G are the
        (hi, lo) words g_hi, g_lo (arrays of `rows`, or scalars: one jump),
        as two (streams, rows) arrays, computed TILE values at a time. The
        addend of one step, G = 1, is inc itself, a view of it."""
        if np.size(g_hi) == 1 and g_hi == 0 and g_lo == 1:
            return self.inc_hi[:, None], self.inc_lo[:, None]
        rows = np.size(g_hi)
        hi, lo = np.empty((2, self.n, rows), np.uint64)
        width = max(1, TILE // rows)  # streams at a time: small temporaries
        for c0 in range(0, self.n, width):
            part = slice(c0, c0 + width)
            _affine(g_hi, g_lo, (self.inc_hi[part, None], self.inc_lo[part, None]), 0, 0,
                    hi[part], lo[part])
        return hi, lo

    def _keep(self, cols, hi, lo, used) -> None:
        """Set the streams `cols` to their states after `used` steps, from
        their states after 1..steps steps."""
        j = np.arange(len(hi))
        self.hi[cols], self.lo[cols] = hi[j, used - 1], lo[j, used - 1]

    def _tiles(self, steps: int):
        """The streams and the draws of each tile of a draw of `steps` values
        from every stream, at most TILE device-draws each."""
        rows = max(1, min(steps, TILE // self.n))
        width = max(1, TILE // rows)
        for t0 in range(0, steps, rows):
            for c0 in range(0, self.n, width):
                yield slice(c0, c0 + width), slice(t0, min(steps, t0 + rows))

    def raw(self, steps: int) -> np.ndarray:
        """The next `steps` 64-bit outputs of each stream."""
        out = np.empty((steps, self.n), np.uint64)
        for cols, rows in self._tiles(steps):
            hi, lo = self._states(cols, rows.stop - rows.start)
            out[rows, cols] = _xsl_rr(hi, lo).T
            self._keep(cols, hi, lo, rows.stop - rows.start)
        return out

    def random(self, steps: int) -> np.ndarray:
        """Generator.random(steps) of each stream."""
        return _doubles(self.raw(steps))

    def exponential(self, k: int) -> np.ndarray:
        """Generator.exponential(1.0, k) of each stream. It is drawn in rounds:
        each draws from the streams that have not made their k values a few
        more outputs than they still need, and each stream goes on from the
        output after the last one its values used."""
        out = np.empty((k, self.n))
        made = np.zeros(self.n, np.int32)  # n and k are below 2**31 (MAX_DEVICE_SLOTS)
        todo = np.arange(self.n if k else 0, dtype=np.int32)
        while todo.size:
            need = k - int(made[todo].min())
            steps = min(TILE, need + need // 32 + 3)
            for cols in np.array_split(todo, -(-todo.size * steps // TILE)):
                if cols[-1] - cols[0] + 1 == cols.size:  # a run of streams: views
                    cols = slice(cols[0], cols[-1] + 1)
                self._exponential_tile(out, made, cols, steps)
            todo = todo[made[todo] < k]
        return out

    def _exponential_tile(self, out, made, cols, steps: int) -> None:
        """Draw `steps` outputs of the streams `cols` and add the values they
        make to their columns of `out`, up to its length; `made` counts each
        stream's values so far."""
        hi, lo = self._states(cols, steps)
        raw = np.ascontiguousarray(_xsl_rr(hi, lo))  # stream by stream
        raw >>= 3
        level = (raw & 0xFF).astype(np.intp)
        raw >>= 8
        value = raw.astype(np.float64)
        value *= WE[level]
        made_at = raw < KE[level]  # the values of the fast path, at their draw
        # The slow path, at flat positions, stream by stream. A slow draw
        # starts an attempt iff the run of slow draws just before it in its
        # stream has even length; the attempt's value, if it makes one, is put
        # at its second draw. An attempt that starts at the last draw is cut.
        slow = np.flatnonzero(~made_at)
        run_first = np.ones(slow.size, bool)
        run_first[1:] = (slow[1:] != slow[:-1] + 1) | (slow[1:] % steps == 0)
        run = np.cumsum(run_first) - 1
        start = slow[(np.arange(slow.size) - np.flatnonzero(run_first)[run]) % 2 == 0]
        cut = start % steps == steps - 1
        unused = np.zeros(len(hi), np.int64)
        unused[start[cut] // steps] = 1
        second = start[~cut] + 1
        level, x = level.ravel()[second - 1], value.ravel()[second - 1]
        u = raw.ravel()[second] * (1.0 / 9007199254740992.0)  # raw is the output >> 11
        tail = level == 0
        wedge = (FE[level - 1] - FE[level]) * u + FE[level]
        value.ravel()[second] = x
        made_at.ravel()[second] = tail | (wedge < [math.exp(-v) for v in x.tolist()])
        value.ravel()[second[tail]] = [ZIGGURAT_EXP_R - math.log1p(-v) for v in u[tail].tolist()]
        # the first `need` values of each stream, and the draws they used
        need = len(out) - made[cols]
        at = np.flatnonzero(made_at)
        bounds = np.searchsorted(at, np.arange(len(hi) + 1) * steps)
        first, count = bounds[:-1], np.diff(bounds)
        take = np.minimum(count, need)
        used = steps - unused
        done = count >= need
        used[done] = at[first[done] + need[done] - 1] % steps + 1
        self._keep(cols, hi, lo, used)
        offset = np.arange(take.sum()) - np.repeat(np.cumsum(take) - take, take)
        row = np.repeat(made[cols], take) + offset
        streams = np.arange(cols.start, cols.stop) if isinstance(cols, slice) else cols
        out.ravel()[row * self.n + np.repeat(streams, take)] = (
            value.ravel()[at[np.repeat(first, take) + offset]]
        )
        made[cols] += take
