"""Pinned sha256 digests of solution and report JSON for exact builds.

Each key is the argument list of one `paradirac build` run (split on
spaces); the value is the sha256 of the file it writes.  The grid covers
every mode, m = 1..3 and k = 0..2 (the last basis head of each degree),
exact time profiles and seeds, and exact zeta quadruples: rational,
Gaussian-rational, defective (one repeated, non-diagonalizable
eigenvalue of xi) and det = 0 (except for gen-invertible), and a few
float builds with complex JSON profiles and seeds.  Any change
to a builder, a basis, the term order or the JSON encoding shows here as
a changed digest.

REPORT_DIGESTS pins, for a second grid of exact-coefficient builds
(gen-* and helmholtz on the same four kinds of zeta, closed and
recurrence parabolic builds; m = 1..3 with k = m - 1 and the last basis
head; L = 3 and 5), the sha256 of the residual report JSON (the symbolic
residual's terms, its support and the expected order; an exact-coefficient
residual is not sampled, so its report holds no sup-norms and no
estimated order) together with, for parabolic builds, the
component-condition report JSON.  A change to how residuals are computed
shows here.

EVAL_DIGESTS pins the bytes of `paradirac eval --out` for a third grid,
float builds included, on fixed points with zero coordinates and t = 0.
A change to how values are computed or written shows here.
"""

import dataclasses
import hashlib
import json

import pytest

import paradirac
from paradirac import verify
from paradirac.cli import _build_from_args, main, make_parser
from paradirac.serialize import check_report_to_dict, residual_report_to_dict
from paradirac.timefn import ProfileWeight
from paradirac.verify import check_component_conditions, dirac_residual

DIGESTS = {
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        'f5a5bcce97f5c289ac71442d56537031050c6bc68a471efedfaeae8c1a4f816a',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile t^3 --trunc 3':
        '5ee52ec5250e85d7aca1af6d2d7c6f1d8a1b9104f39285c019d5f1e4aceb78e4',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 3':
        '98c6c9e500b165d3578c20888289c4ad4dd08cec427c544cead8433d66256dd9',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:0:1 --trunc 3':
        '9136622936891f1b2965a2614801b396df943576a03ad67c62cff7dc9aededc9',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '834a025acaf99a106966b1d34b735883177929e3969b9f127c4b302773b89025',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '251e811453dc9c9bb9db25bdca9b1e87db4c905265b7dd0f68eae71ab6416cf1',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b9702835debc6ec345e8de494e43dfc156121cbc29fa537a45aaa590939bb7f2',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'aaaabbd1602a2cad48a7f43ddc499ae753002ba265fa21710015006eef5c53da',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '9af333f2a939000f891571bcd7623869481c659044a4f44c961e8673dcc923be',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '93664731e15d1f0a04515e0090497fb80b8721cc0914cecfe56bd81394a6178d',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '013e93dc4c7cb2a4fd168fae00262cb156f4433c69467aa6e0dc98ff12003c7d',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '9bfb8d4c0a35d6fa850dcfa7f6ae6fd98eb69cdece0b827ad7a188cbb876ebec',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        'bb19e3c5107b81105d19ac422118a6a95925c65e73f90c7a4025a1536de4fab6',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '63ca50f96d75055e407de0759882eb9de8d054c4c3845e0250b4882bb4f666e2',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '7929c3d51a5fa8cd716bf93eabf7ac5777fd88276d0d718c02a09fbff60bb934',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'f6cb712d3b9c838280537fa63ea6093efa818129f7f817c64ca44929eec97e5a',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        'fc2c35e6548594a94af87ab7b265cd8c2fa1b79bfe7511d4ad5e4c4baff9230c',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'c5db9232599e79120f4cecf2b1ffa251db942c82cf0183fb651a5dc4f4e6c869',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'c61299eabe6d313c96be01ca117142daecb6b32a74f2988554a4d8b58bfaced0',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'ca7de98728fe4e0b05feaede8e240e1fda863ca9466a192739d17c93223f16b8',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'efe5de91847f8a5b15dda70ea66d27eb6a2d29d1ea1f5300ecb3bcdd7a60edbe',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '28a6c6ddae9c64849414971610d76f98e096f56b5fbd326249644708eb2cf27a',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'ce9e31afe86fc67d14edbdd163395ea3c9b872e580f410ec00129408c9b85c8f',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        'dc9e7398084088ebd4eee4cdfb3f2bb40fbeb266c6977040a0dc9c5ade9e4efe',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        '169f0bb761461105fe269db7ca7ecaf427ddcd79103a09ecae9dd897f73df380',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile t^3 --trunc 3':
        'ceb653be9a444431c4ab971d3bf6a005622df102ede7fb18baebdfcc7c16c468',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 3':
        '886b4c76ce0288d1a8b0297ea642e4546c6e523d67257217fe02a9d6801bab50',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile exp:0:1 --trunc 3':
        'fce81868d103ccc1bc7de2edf24a1da195d41eb605a1642559ab02bbcaadf166',
    '--mode parabolic-recurrence --m 2 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        'dab3f03a3347319daadc2d43eb41544e2eb5a38bd324e8b27b053a2c74878fcc',
    '--mode helmholtz --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'f423f16e93c2e16e04bd4d95459b19571ec7ea8abad4507a49aa6bb833b18518',
    '--mode helmholtz --m 2 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'd021cdbfa54d29ba21b2801c49d9d73aa7461dff5755d98caf8695a92ef1a012',
    '--mode helmholtz --m 2 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '146c2c11259d0b8ee7aed8cbc519109d434f380eda8f50ddb8aadae1217ab4fd',
    '--mode helmholtz --m 2 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '034f79814f9783e66ae842f425954ce40ee5150cb621f9b8d1cca4d1c1907b9e',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '9735caa1f3b71230c51be4f86c6b302fef009b203599409ebac66443784013f1',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'f3bd790aed643aae967590e7016d5f381720e83b04e48baf528eccaf1d02ee21',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '969e96e24d1a84965c329723010fa9df4324e20026fa2aa70a283e00f9c077ff',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '28e71fc8ad8c3103581289c4007deea5492990aedb71226b6993de35b1793757',
    '--mode gen-factored --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'b80ba2053b3874d46a0c59fd64f87dc49844343552476cdd8227419f22826aaa',
    '--mode gen-factored --m 2 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '641d327ad6e7ace145eab221ed94000dbbae6f48c6355d9f375549a9202b78c0',
    '--mode gen-factored --m 2 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '256c8fe90153e079820129793d686af9770c097ebe27dbd19e498859d5ee2cf2',
    '--mode gen-factored --m 2 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        'd4dece0f153b127ba908ec84be7fb5919ec23ba68990aebf7e2ac991b9c5ab69',
    '--mode gen-invertible --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '8d04d931480308faac7d25f41583d45b26442c69667f022d658389d760d5017e',
    '--mode gen-invertible --m 2 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '17e8630e8274cfcd363d70dd9bb11a1301d183fc6b824c28989d1e2a6136c802',
    '--mode gen-invertible --m 2 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'b4b75731d16c1b6ea237caf3d9f9c6041ee339e633150bc3155b56d47fc5eae2',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile poly:1,-2,1/2 --trunc 3':
        '56684f6a3552c241843b5ff2d2f9f9df50df4af3de21f68bfc522c7fff379ef7',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile t^3 --trunc 3':
        '842f768d12f20ad7023efc2f209902e288ec9cc2ce512995d86d7935df8421c7',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1/2 --trunc 3':
        'cda6c35fd3a09259a34790f6f6f7bc09cf053a9f938d3d81da9f6d932c6f768a',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:0:1 --trunc 3':
        'c80f9c450dbc8a8f109cddb164b40326a67aa4a96d942f25919d407a41d9b783',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        'b487ea022e750be117647299c67095db02d40c46e8032836e609797b41b89e1d',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '799a6939062d454ed170fc4faacb9f7b1e3b3dc859e86cc6ddb4f0e4dfbc96d8',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '9a0fff0d493b4f9a98b6a1e60c27ace74f412cda17d914ecccb0fe6902771c57',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'ddc9905a77498233dc9293a7bcdeaec749e34ff481540c881dd6d70fe3cb827b',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '021eafd0be1342046bbee152b2d6de576233c5a93e730e2e72374ddcd4697adb',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'e8637554204449b1e2a4f5a7a69acf2f1b757ddf610f942adc202952a7cd80e7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '728a1a7ee87cb220521c21637b16ab985ea1315c0f4cb5e925d6aa3107350c35',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'edf22557f4ef6144268c2b33726494f5d0fcdef6b3e21ec0b0d1039eb767ad81',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '042fb86843b78856a95e6e5d7530ca3622b8fd585e0611b71134bc2149bbfd0e',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'a6ca34623756536000f7e7281efb2cde823315a238cb351005a27aac809f7424',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'eb3b9b5387936020975b489daaa2e50aa618aefaf0b52c1fd13d0c777997b75c',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '4668e63df674bc398ba8e51a9f87c602d0f374720f3ecde6fc3690024afe287b',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '53ef580286a4844b9bf9a25233dbf0fd02058d10d94b4afc0e13ff1b5bc79266',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '36181885291a039544dac14fb2a9ee09fed0079fa4417280f2a3a5e927f100ff',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'ce2c34015533ee61efc4f81408772e5a6adfd5c0423468e61c9c1eb80c27827d',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '2019c59fc55cb3f3629258df99d302b753240c7e85b7aadcf78bb9ee4b692ea9',
    '--mode parabolic-closed --m 2 --k 2 --basis-index 1 --profile poly:1,-2,1/2 --trunc 3':
        'd4777ad47d181bf640407cde528109741f004432d6ecaa42586f42936e7bb38f',
    '--mode parabolic-closed --m 2 --k 2 --basis-index 1 --profile t^3 --trunc 3':
        '90429313ac98980c0c4123d9fd7108a7f622123dd9205d276e2fe4de0b060880',
    '--mode parabolic-closed --m 2 --k 2 --basis-index 1 --profile exp:-1/2 --trunc 3':
        '4d157b246975a41ae2acabc31df44e29c9c08cdf0e046086fa186c9a7f9e2232',
    '--mode parabolic-closed --m 2 --k 2 --basis-index 1 --profile exp:0:1 --trunc 3':
        '0d0dc9141ce99326f55c6b2294bf8688d93d23ae1b909cf2dfb4240920b76530',
    '--mode parabolic-recurrence --m 2 --k 2 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '5b7c9d0dd880523c1bb3439cfa8b2478d09c3ac3bec8f2596c32bc2a75f8d925',
    '--mode helmholtz --m 2 --k 2 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'f95d6215ee56e3a2e4616bce66cbfb97f1ad601fcb11a0323f465f02c44d79ed',
    '--mode helmholtz --m 2 --k 2 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '59cd69c8edde537d17ae423794d17faa927b034b4a423f23821968435ed675c9',
    '--mode helmholtz --m 2 --k 2 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '6d152424108fd88679df31b1288bc370d0acf50a01f52d73481fe63d64a1bc95',
    '--mode helmholtz --m 2 --k 2 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        'b01676d2b51904e882fdfcf7296ba28bcaf0bbfd4d5b975de15a1c9076fd0c50',
    '--mode gen-monogenic --m 2 --k 2 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '6796cf6f9d1e1c5c08b962406a445ce49c69aea2cc37aba03a84077046a3745f',
    '--mode gen-monogenic --m 2 --k 2 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'ed5a7a9581f0f50e4e2a0a6d044ed5d7272a12b99818de30aad57f897182724c',
    '--mode gen-monogenic --m 2 --k 2 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'b9ac81da9aa8c55515a151178dd707601d472f2ee09475da96e291e02b5ac690',
    '--mode gen-monogenic --m 2 --k 2 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '5b6426471ceb0c784465a30eb845fc0447b16abb6c90a841cf466804a9060136',
    '--mode gen-factored --m 2 --k 2 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '98a6860e6bb09ad04192f8cb628841768dc527f9c99c39c19ed59e04f7e3b4ca',
    '--mode gen-factored --m 2 --k 2 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'a601cbbb1d646b634c52321358679ac2a8ca24fffed07ef26c5f040d7f20f29a',
    '--mode gen-factored --m 2 --k 2 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'a084f04a3bac32cad3414b074ccf8d41f421e885c908d00ef4917a34765154dd',
    '--mode gen-factored --m 2 --k 2 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '87cab074884adb4aea1545e55dde9455bd8db664c46a35b1468987e105d86407',
    '--mode gen-invertible --m 2 --k 2 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '52a4baa1fbc3b8d5318b98e429dcccef5cba6a0af2114edcea2c132247ea3dd7',
    '--mode gen-invertible --m 2 --k 2 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '415ea5c31c8df6576af05586cc80e6264fe83cca58a1fe565a7793a494c02340',
    '--mode gen-invertible --m 2 --k 2 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '77faa1f3b7813a9b8f77bddf747b3b511a05722145ea7204ba8eeae1f7a33254',
    '--mode helmholtz --m 2 --k 0,1,2 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '3c4a16af1786260d0aac6247f8c5ef8b94a55dc870e41a34fce17a1f2a85c957',
    '--mode gen-monogenic --m 2 --k 0,2 --basis-index 0,1 --zeta 2,1,1,0 --trunc 3':
        '6a8820140012ee7d2f98fae8d703915de526bc1d87b9032390cfbdfbe65b7e49',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        '39e57d427ab486043085930c1c0032a16bcc4e7ade774855e8c6f5df50a6b648',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile t^3 --trunc 3':
        '9c2fed8081612d6dedd953a85afed69c071428792e4cdb9a2433a7fc4d376afb',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 3':
        '00510f07e8c437e151ee59073df8b9001778c7c765d2ef8cd1e601e78068e9bf',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile exp:0:1 --trunc 3':
        'b4b2556c18849d043344e59900964f9eb471ec19307ab3d2a7cc3b516ac05b40',
    '--mode parabolic-recurrence --m 3 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        'df5ce611fbcd55ff7a7d8ba889d85baa04aceb1a50a067c9b10bdf384fc34cad',
    '--mode helmholtz --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '79a3a006a3bcf1d99c3ef6aba64c91db360bd2b1cfbd208303bf04fb0fe9fb19',
    '--mode helmholtz --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '2cdb49b8a5ac0ffeebb60f9f4fdf05d46c5d5ea8991dd8f181c935bd5a6e9b2b',
    '--mode helmholtz --m 3 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '8c2067bd5219fd428f3ad850faab585caec8d16dc735ad893153483f7a3a8c6a',
    '--mode helmholtz --m 3 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '42593477543d6bc1d673c2e5ec3c7631bc41a6c4d470feba0a32e7682e1763f0',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'e9be01a064a4121c9bd3744ce6ca06226af3c061b28dd5b96d1cc6a5d4638b3a',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'bbb14595226b9198fd47e06174f29c65e35d081bb0a2313585504d452a9a087c',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '36dc6f3b227ac9e2a2a5b2b3472c9267aea20baa87350c7bf6415fa3d62c3f62',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '219b9b416f63ce095ac1114a427a5d190541e5a9da3bdf9c14389b8afea26468',
    '--mode gen-factored --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'eaf4b2187c701c3084e5e839957df2dd8cbe1619fbed0fd387b7e1e4d68c4d38',
    '--mode gen-factored --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '8ecee8d0c23ecfea8c517f2319c39cf8d27c5d5869fbdd466b6b2ff2d95a5294',
    '--mode gen-factored --m 3 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'f1971a6d0e1bc6e5381a45bd52e6c54d1c6b936b986f9b86b7eab4d6a0868357',
    '--mode gen-factored --m 3 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '2227549217bbdcb0d487a755b8f1c808c02f0a09a517e60d619e5083d155aa79',
    '--mode gen-invertible --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '2f15812e11c28401d514b6d9b912ba1b768a93e372ca896f4f72258583ab1c96',
    '--mode gen-invertible --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'dc2aef25748a43980892cb5c8cf4c80a687b9c425721e15fd12ec356895fd548',
    '--mode gen-invertible --m 3 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '591ff6d533837dc01defae7ed0187adffe3a3e03edac7d7d4bb9126e68092fba',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 2 --profile poly:1,-2,1/2 --trunc 3':
        '79b53f1c94cd880220d601a153cfeaaf47ee9dc74a4c6f3171a9136b40707a33',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 2 --profile t^3 --trunc 3':
        '68431995b30c6d11750e20080b8f3df02177d8cf351c716d8622b1cae224ee1b',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 2 --profile exp:-1/2 --trunc 3':
        'f88d7c49dbac71d76cd33b0c984bcb92d55a51fc2eac8167b25b3cf9fc70e7c9',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 2 --profile exp:0:1 --trunc 3':
        '03ad556dbf21be3976716edb11cd109085ea103c35d1c822ca007dd4b323ab89',
    '--mode parabolic-recurrence --m 3 --k 1 --basis-index 2 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '491753da333a29af9ddbf7b5eb45f811d080c2510714fe0c6eb256677a81e07a',
    '--mode helmholtz --m 3 --k 1 --basis-index 2 --zeta 1/2,-1,3/4,2 --trunc 3':
        'd358a52ec14fcf5ccfcc208f63c985522623e3b232f4a4ba2e70e24dbef02b2a',
    '--mode helmholtz --m 3 --k 1 --basis-index 2 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '5ca2ac4d2320d5d21c7109da81cfa38c70f242cc5a627c16e2ba07ece2b62f35',
    '--mode helmholtz --m 3 --k 1 --basis-index 2 --zeta 2,1,1,0 --trunc 3':
        '57b5481335c8e96e78cb1152f057b2520bf67a1a2f1fe1bbb550249077fe6e46',
    '--mode helmholtz --m 3 --k 1 --basis-index 2 --zeta 1,2,1/2,1 --trunc 3':
        '9a1bc9fb3b22ea7c183b5af687ae97bd993343cb01b701bc36266121989879cd',
    '--mode gen-monogenic --m 3 --k 1 --basis-index 2 --zeta 1/2,-1,3/4,2 --trunc 3':
        '164aae0dc5c00b5a9e0a73c0ed7bb7e96fed2fa6cc0f9059a2028d335492f415',
    '--mode gen-monogenic --m 3 --k 1 --basis-index 2 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '693df406c224987f0b95a0c648bc9126112a8103658c7380dace8542ee2e87c4',
    '--mode gen-monogenic --m 3 --k 1 --basis-index 2 --zeta 2,1,1,0 --trunc 3':
        '79ca6b05433a6a5af7ac3ed86233d539c31f21f1763f335293c3e8e3407ff309',
    '--mode gen-monogenic --m 3 --k 1 --basis-index 2 --zeta 1,2,1/2,1 --trunc 3':
        '98c8c29fa8c8c73c6d2a5efed27ab526e6f3d20be03dfbff12424444e3b6ed17',
    '--mode gen-factored --m 3 --k 1 --basis-index 2 --zeta 1/2,-1,3/4,2 --trunc 3':
        '500a43f1be96f0a18ff831876ed4901edd44cbe617de7fafbba10e6864ef7a91',
    '--mode gen-factored --m 3 --k 1 --basis-index 2 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '93a85deba3f0dd57e24528cd837e0fd5664cd85d3c5608939ffe4c2e747218a3',
    '--mode gen-factored --m 3 --k 1 --basis-index 2 --zeta 2,1,1,0 --trunc 3':
        'a921019247012f54893793dc3cec7671ac35f42a75db92cb2d5b036f1707c128',
    '--mode gen-factored --m 3 --k 1 --basis-index 2 --zeta 1,2,1/2,1 --trunc 3':
        'e4fa66ad63c2f36416b44700b8cb9d85db037ba1b92601346e40a4f5ba6882b8',
    '--mode gen-invertible --m 3 --k 1 --basis-index 2 --zeta 1/2,-1,3/4,2 --trunc 3':
        '6e5cb23a686a40557f7688362a50b576e8bdd0c667514fa0cc11cf9609c1c0c0',
    '--mode gen-invertible --m 3 --k 1 --basis-index 2 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '0e20dddf613aa212e2712e70e9d9822752708b2d2be02308314263b0f1aaebac',
    '--mode gen-invertible --m 3 --k 1 --basis-index 2 --zeta 2,1,1,0 --trunc 3':
        '353da8bbf5663fb44fa44c1c22769e42e502bf70ec0507e71b83b4015d3fbcdb',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile poly:1,-2,1/2 --trunc 3':
        '6919b170f1148bd34c9fa335963fec38b18159740bc58ce12b8c91b64a4d444e',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile t^3 --trunc 3':
        'ae6ee1ace76ca66718dd3bf83ab0ad951d776e97451ab927f469ab63590a2147',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:-1/2 --trunc 3':
        '10850887556379bf6538e0f2870ad5c61d6da1944d8ee235ddf4cde7c303f3b2',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:0:1 --trunc 3':
        '0ab9b93c282eea2c157586b13294a462cea809b3bf3d62784017a1441471e913',
    '--mode parabolic-recurrence --m 3 --k 2 --basis-index 4 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '1563f64a40794b956ec96f6e60299fd98fc8dd1a5e219c310f621dcb096ca090',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'd02cfba70aac8342c405fefa2a54174ee1f355614464768c64eb60e0478138e2',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'ab371cc0bd89fcbbea3eaafb0dfbf8a07ec352cb660bcf5827c31fe9f361f00a',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '4db1aa0b679cd55b159182ef83b09e1341b95b386eebe0cc7500d5f04c249355',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '4f6fe2e6774087d2484cf15e20eb608aaf8815940008f59f093925ed67e48c56',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        '979d96a2ee2f84d7a13d7de9182d6d4cb4ab2ad4027599dac62432893210ebd8',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '3d7f27fa61ece60535e20504fd8af9a7ea0d3a1bf8ee6abf3ba5b922221ed306',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '7ea25bcf87c5902f635b98653532f054419c895b3c90ce75f63426fdbf8f5d5e',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '44bdbae2e4f261eb99afb5672b782b829b578922d61c046d064c0838b4f27895',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'b19483c60ecd31469dc7f416a8cce7910c2dcdea183b691c8cd426027acd4f05',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '428620e44c43c617134e72d8b6bab7ca62f7bd420e9bd9453573f3897b078c8b',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '42d604608a478ad56327b363939ce335585f8400370252a6a58a0ed86d99bd07',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        'ede8c4a2dfa8229a1767426706c9abd1434608e1c841ddab4b6f1633fc980f78',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'e61b86e1407439d171c33f783af594768c8a7d05d7f692230c09bdc382970b20',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '5779890be8cc1dd284b6ca9eb806f2eb7d180878a10668b99da9a4f500d09e73',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'c45db1bdf87aef1882491e4082d642be48c7542fcfa4b5a8159cb7cd726b37c1',
    '--mode helmholtz --m 3 --k 0,1,2 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '73583e2c42a9715e3d605bec3fef487e0ebde4dd552f21a16467535ff6bd0c25',
    '--mode gen-monogenic --m 3 --k 0,2 --basis-index 0,1 --zeta 2,1,1,0 --trunc 3':
        '1d99f81930c77e8492c10aff696485a4063ad5377bf955004ba0e38b0768239d',
    # float builds with complex JSON profiles and seeds on heads with
    # negative coefficients: every float operation, the sign of each zero
    # included, shows in the written values
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --backend float --profile [{"coeff":[0,1]}] --trunc 3':
        '4cc7e81087c8a186e0b03404469a057096309ef57789f0fced5eea6ecdf4bc20',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --backend float --profile [{"coeff":[0,1]},{"coeff":[-0.5,0.25],"n":1,"lambda":[0,-1]}] --trunc 3':
        '48f7139543a2aefb95b5a08f7949acbc5023636c0e19476202d622d939db5a3a',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --backend float --seeds {"a0":[{"coeff":[0,1]}],"b0":"1","a2":"t","b2":[{"coeff":[0,-1],"n":1}]} --trunc 3':
        '73da0093d54a43178cec53796e9a968ff2a5ad83b1af4bb2e31fee722ef102a4',
}


REPORT_DIGESTS = {
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '763f012ddd7d7e26b9ce2409c66bb138f1fa02487c1165135157c57a6844111c',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '206f14f63d6f649b83d7cc42b93398d984187e0defb82419ef1297ffa381be6f',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'd8ebeeb5c1fca49a865ac33514c006d0c6077ed26caacfc752aae3b87b1f62fc',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'e218d8016126e0919dc15500023f19e64f59e3219a1ed6f6bdf6553b328afa01',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'bcef3cbf05aec8ed71b3389f318d20df40305f0c12a43a0c7ecc9db46f83b8d2',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'f47ab2625b03cd7ab32d24780c828052bf528fb671293eec251d1b295e0f9525',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '2e2e598d68898198793af1494798f3409a0e32b29bf2c7a4a482cd65c86f65fb',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '8557f32157cd6e9f32150a46e4055bd2da92caa0d6d2444bde049eafe75ece45',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'c9027034eab61ce8f26e32d9f29e0e37f5f3cc296183564ad28e53333900251f',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '888041930c013293a2838eb9d0f10a70e88de35163df1707249c771798d0001c',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'a244a46585fa0193aa6e51a67d79967f1761c6626f627d694b5baf9e0e078dd1',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '68f64c54157c65027b9545d8ea0a23dde3db4d92ddd677e2143ac21e10fe62c7',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 3':
        '06cdc7b8a3ba72724737f33c97744ba4fd9430a24e58e67b0d6e0184d74ff263',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '298431a5aa1480535c343b655fb1c47688af59cf1f2b9a067eacc9a6b88b7fe9',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        'e318bde602d3d9ae3d91290ef5f0907265ac12d843f549c3e357bbfd000e0587',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '38cdb2ee774604cffe51aba4e7e502bde1e640154baa99b5f032a61f2e1805b4',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        '749ab169c4ab6df81463ae973cc0085acc24d9096b7d8a96d977341bf457af62',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '95d62cc51a66948f12a714030400bffb562f9d1b4e2aef8f98830c536a225d13',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '25d151f6d3c49e553e7759cda5b64947cf93f82e82a8b8c91cc777c2a5a5e170',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        'fc57773d128813a9ff94fd3c9ab3c33cac43b14fb4bd8fc6ad6a58f8f3001360',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '2dc9a1c37f640f3503261cbeae903064dca0730a060f3b6556b8c79f50f1fb09',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'a675af31c1f0ba9c23432cdcd442837c4b34ea2a44fdd09ef470ac903bfb64a1',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        'ea96ea3376de8263e34307e2e89f607e3af23ee1cb928dc3c58203b73b166e51',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '3931992a0c52df9612fb51e2364e2a64883a0054f5e3dd0493767509908f1e56',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'e2b2c3698105126feb191ad2e00edbc441fcbc94d052edc95c80de4734817a8b',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        '49a72f9cb87f5ab7c8ee52d6143c33097eb00d7836005994a0b9538a7686cc1a',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 5':
        'd8a59704694ea42dd64bc94c90ac9cebaa52bd02bd860e3952df37b227eab30f',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        '55bf379f4b01b0ccbd16c8725f7055d3fb40892f8677ec9616c193dcfc143ce1',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '6c787f89ec62c78204fc0e569e91fc8b5a0130333b3e6c0a131988dcc6ee22d6',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '5080b7c3207203f5e479ecae9646945f09ea3ad1eada6c7310f467e70bb777dc',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'af4276171f640ba723c1ba48e55a2b1684a3edd235923fceb16471b5414ad30c',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '575e5ba96e2b76b9e86306d5e33c93588fbc844ec3c4cb3f5883ea2cd7111d59',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '928638a2f170fd4437f114f705dfc160d2471190ce5daab29f5c49a26f294a01',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'd917fb7a947995fcba7cc369096c4a94d346bfeb61be2c029d6c45852e549795',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'ef7f15bafa1eccf61bea40821cdba8f46ef424f759c2b6f0aa6bb7d3cc85a840',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '2194dad1b6540f80df8aa2b83aebee141c4f8bdf918a27332d37a722daa80baf',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '0ea124c4e6b9f86b2d33feff34bee7089d79f4dba82a413a6ef50477e5e13390',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '5e5b227566661c909727c8b90d219ff8c84c80496e700ba55dd4725d5c9f631a',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '6069437964d1326a600a471dca8ade1e2371042ec0e9286e6d7979094745ead3',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '378738523f82aeb055084e1a3b4ab5fe36d43721661ecc80dd7a0f6d0c475f16',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1/2 --trunc 3':
        '1f04e8710a46372d7cc94edfa38ee6e322760da89edcd7a3c3ec6b7c47606d60',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '1c8f04f95edbafae6269af4e42254d8dd688c81fe0c18931bffd35ea0345b17e',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        'd289d7d799c753b0f4e456d9c6d019607cbad208235f19e437bf777eedf90c82',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '73bd804ea019f0ace4edd81e728bbe9b4506a9dc1722285309898dab62e7bb02',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        '8b5442ec1c75c8b13659460585f661f17731746eb332bd0c7dafb311958e4dcb',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        '9a32fdb8e71fae9e31e74aba8fe0d698cfd9e8a2fad2b5195209fd0fe047f841',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '3fae70f28c65e9861002440ae11d274d1bafa2d040dc362fce36c8e83292ea83',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        'c03480a16f7590550f2500d6c31e568ef7e4f40a9de9cac56f8eceef8c414c9b',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        'e2ca1e7b0d197d32eb109c53dfdef506215462638db4ec8cd8bd2dede962b4aa',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '42f573495f6094f2dc3301bb4bfdc4c44e04ac3921be1c1a3736f80af534af96',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        'f83e60ec223f16ef7a581136aa324d5656c0d2ec22c4bff2407114145a50b5de',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        '6bdb6f81ef2e65ba3a0870535082b8ff9b30101d2e25eda355c569d4337cd9ae',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '563922a543f4d8166927793dc18397c09d4003363de4e31cbaf63fdf09540ed1',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        'a080038826b511ad66f2257170f2efda4c5640dda709cf1fd97dc70012ab6c8f',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1/2 --trunc 5':
        'd526a226cfd1a8b17b2b51df484a24d7aafb813a6827fa13610256f6f0d7f7ca',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        'c3382c78710c44e2b2677491b153f5fbce08a4d1ecbdac978df89dc5527e3efb',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'fbc2e17b18b381cf5f6df19599e607f0627c2e15f7fe2e969c94c2055073229b',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'a3874ffd24923c61bf86224b3075c1128616d9e4fc02d86f253200c70759239c',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'ab42ded25c8ad1f2bae083b1aac182bc5d1e9a442c15a81a52c81ad244c30630',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'd0203c01ac697ca1c6025c1a80e29d7554539ff30408746cb1d04c1e8c25a004',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '607a7ea781a9adcc1d8f20f287a21c3c76b34d70dff3e4463314140cae6024d4',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'bf7175470b704c68771b95a5d853dfea01418d0f817435c3a2a38cd9282ff15e',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'f5534a296a8ace5c6e07e4f4ee857b4244d6100bfbbd2f9b5a9e9e5b1ddf8521',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'e6e8aa021e02df6fd5f7a86b25cfd718dc14bd594fb2b183363ffa258f1e167d',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '4aa370a75f4b7f31ffd5ecad32626eb30b156ae33f38383d50e6e96e1044bf24',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'ac1b14fbc64cb9c2069b45e079d0b1fbe98ce30b1055f2167b543beb089cd780',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'd8e00a6f23a979f5da63a5cefeca11440635f9fa8db175b6dff7a3a0f61b5ffe',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '0cd94f4f72523a87d9da2730f87ee2e7e75e013fa57024053c4f05173d6566c0',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:-1/2 --trunc 3':
        'eb94aa14d9e88aacf3afe051705bd3ab16bd7433b19e45cdba50b1d19e90c146',
    '--mode parabolic-recurrence --m 3 --k 2 --basis-index 4 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '6d71130f4227fa6ee9705e8ba027051e289e350927616fd320cc2bee46943474',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        'c3978a43fb577180ecd503e817e1b3c90f165800fa5df45062c72bcf209dce5f',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'ec7a2f13d2e72054800d6219ffcef605100f8bcfbbcecb81ada938e98b473414',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        'd1930d2f885687b816ae8e86a0afd07cabe2c85dda5e5957d2fbbacb96da7e60',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        '6b1c3869c12bdfcd5c97c4e67b6adfeb75074fd368b64a36745f63aa32490aef',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'f8ae20e3cef85e3a37356a8b1fbd6db644d54b8dc0997aec634598c0cff865a7',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        '2f0f5463ca64bdbe5d940d8d26bd65f331ea74ad53885dbd24a06a170badaa32',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        '77d56f81de4abbf7cff3b74c007807aadaf1a9add11cc3c32bb5179787c8b4dc',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '5a0d0e28ba4962e805a4faae48f62184910b52b0ba3db56e917986ddae0a390b',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        '35c9aed679143db1c18008fce8c887ff92838e1fa40f0a35376771fd9303b005',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        'f22cb5b1cdef4020bde0c4cc1cb103b8b780278b1586d42e51a339da966de354',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '2a98e788de0fc3f85308fdcefe6efd72fe377e68c6e3b8a2a2bbe2a96fa31936',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        'a009bc667c5b475c3aa67f343630e8a751659d076b79dd845dd66ce35d782209',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:-1/2 --trunc 5':
        '4393a9932637dfe83b39cb2571d0d89b72bb5490db167f318b474f1abd193596',
    '--mode parabolic-recurrence --m 3 --k 2 --basis-index 4 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        '156139cf2ac5869f4a6b3385b0bbb45c39d76bdfc8ec34bb86008e907e85fa1c',
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_build_output_is_pinned(argv, tmp_path):
    path = tmp_path / "sol.json"
    assert main(["build", *argv.split(" "), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[argv]


def test_public_names_resolve():
    missing = [name for name in paradirac.__all__ if not hasattr(paradirac, name)]
    assert not missing


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_output_is_pinned(argv):
    sol = _build_from_args(make_parser().parse_args(["build", *argv.split(" ")]))
    out = {"residual": residual_report_to_dict(dirac_residual(sol))}
    if sol.mode.startswith("parabolic"):
        out["components"] = check_report_to_dict(check_component_conditions(sol))
    text = json.dumps(out, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(
    argv for argv in REPORT_DIGESTS if "parabolic-closed" in argv and "poly:" in argv))
def test_a_form_with_a_shortened_chain_fails_the_ladder(argv):
    # the planted form claims a'' = 0 for a degree-2 profile a: the
    # derivative that the ladder drops leaves a coefficient on a'' that
    # the next weight still holds, so the ladder refuses the form and the
    # monomial path reports the same bytes as the fresh build's ladder
    sol = _build_from_args(make_parser().parse_args(["build", *argv.split(" ")]))
    ((M, xM, P, Q),) = sol._radial
    assert P[0].lengths == (3,)
    short = [tuple(ProfileWeight(w.parts, (2,)) for w in ws) for ws in (P, Q)]
    bad = dataclasses.replace(sol)
    object.__setattr__(bad, "_radial", ((M, xM, *short),))
    assert verify._ladder_residual(bad) is None
    out = {"residual": residual_report_to_dict(dirac_residual(bad)),
           "components": check_report_to_dict(check_component_conditions(bad))}
    assert not bad._residual[1]
    text = json.dumps(out, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[argv]


# Each key is the argument list of one `paradirac build` run; the value is
# the sha256 of the CSV that `paradirac eval --out` writes for it on the
# points of EVAL_POINTS.  The grid covers both backends, every mode,
# polynomial, decaying and oscillating profiles, rational and Gaussian
# zeta and m = 1..3.
EVAL_DIGESTS = {
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 4 --backend float':
        'cd4812db950f797ea6b3eab7f364b43f10617ec0b099d927fa25caa879c16c11',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '51f9523956ab3ecb891a5e8e5c2d5f3fa0cbf00baf611e1ed09e27fff53f5dec',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 2 --backend float':
        '1854c1367825c42227d6749483cca4ad64407c0fd416df1a50142f4e02b59a45',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b6d90a025d3dafc80d9ad4b740d65a385f1f543818704d3df3038d98949da994',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3 --backend float':
        'cf6bba7a24736a1cfee8b5b05409021fbeeb7319b08768df86538c5c5ec2526f',
    '--mode gen-invertible --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'a4f6d2336a7d71620af64e10263c2ef17e66f0a4cbf006772937306f1be8ec47',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 4':
        'a195091a94f054acaa58fd8a9c139220536d9008123c67374f9c04ff60480cad',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 4 --backend float':
        'c4c71c3d971a4570b45ff4cfb5125d066a7b44a737d53bb5ee61f3a06918a5d3',
    '--mode gen-monogenic --m 2 --k 0,1 --basis-index 0,1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b17fd084d38f282987e67b7639144b72c8980b6585c8dc5749fb64818695c356',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3 --backend float':
        '0394e09ad4efd13878e885fee943aaa641d0e66d68e699407d7e118da7e88bb9',
    '--mode gen-monogenic --m 3 --k 1 --basis-index 2 --zeta 1,2,1/2,1 --trunc 3':
        'cb023fed720312a1b8fd9ec1f199ebf0263230c6561303aa8ac4f7d2600037ad',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 2,1,1,0 --trunc 4':
        '0c204497999690d6db957e8f5533dc9c5c79f6fcf8fac1612303a5c6d37f4565',
    '--mode helmholtz --m 1 --k 1 --basis-index 0 --zeta 2,1,1,0 --trunc 4 --backend float --radial sylvester':
        'c0145fd7fc239b9fc3d6b0d0ab330e68851b65f0f4a91fd561d8ed030d055c88',
    '--mode helmholtz --m 2 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 4 --backend float':
        'c3e8585200d9262e5e11ed4320bab164e1427fb6069baab268a7e0b3570a401a',
    '--mode helmholtz --m 2 --k 2 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '7256959bd7708641b5a261109eca151e28f2567596f8a64df65aee78a6687752',
    '--mode helmholtz --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '91f22a062eb40fd01edb24dcceee165d3455ce9d2251c39b6ddabd73001342e2',
    '--mode helmholtz --m 3 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3 --backend float --radial sylvester':
        '90337c313e68bcee3430f89bad5499e22aac6a9f22f4a844f8df792100f86fac',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:0:1 --trunc 4':
        '2dea98cc2a8fc9df8b7f875f488733627e44b8c591dd7ae4e92f7f511fd295ca',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        'da3b19c431e66b04348a2564fd32c92cc4b6d74e9daebff3d8fe110284df6e62',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3 --backend float':
        'da3b19c431e66b04348a2564fd32c92cc4b6d74e9daebff3d8fe110284df6e62',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile exp:-1 --trunc 5 --backend float':
        'ed5a0446e19013b05912ded149f08d2801fd262f97acf470a6159cb9e0536061',
    '--mode parabolic-closed --m 2 --k 0 --basis-index 0 --profile exp:-1/2:1 --trunc 4 --backend float':
        'f9843bec27bb441e40f58e027e7ae1da9af79bd4fd19767a1242d0f1bc3858c2',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 0 --profile exp:0:1 --trunc 4 --backend float':
        '38cf1ecaf87ab1983269239b1c1ae0adb71569df6bd22c05b7eba1995aa5f286',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1 --trunc 4':
        '71b46d5c189d063edc606f21789e68643fb9a38d760616e23ae2d2d964ec05bc',
    '--mode parabolic-closed --m 2 --k 2 --basis-index 1 --profile poly:1,0,-1 --trunc 3 --backend float':
        'a9abfe31523fb482848a3a9aef726999280c12d2b255b28bcee14b1f16e7e20f',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile exp:-1 --trunc 3 --backend float':
        '99fe45ae1a4312faae10bf03babb318c81bf83b207880e1cf4998cd2183da156',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 0 --profile poly:0,1,1/3 --trunc 3':
        '3e9b4559b8e9b8de58a39d8927cf15a1f3abed76310bcaf8f1ed7d613124dcee',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:0:1 --trunc 3':
        '807b4f9907293b8a4e5309f153fdcb7175b9dce2f4aa03bd7b9f146e2ddbaf4a',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"exp:-1","b2":"t"} --trunc 3 --backend float':
        '87987f9d0da558e35928eecca4405a612dd591655b216112e04e8242663ed492',
    '--mode parabolic-recurrence --m 2 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        'd22073061a8f9f00e55535724f53915dd93ddc9471039a0c136507755a111e52',
}

# (x1, x2, x3, t) rows; a dimension-m file keeps the first m coordinates.
# Zero coordinates and t = 0 give terms of weight zero, which the
# evaluation skips.
EVAL_POINTS = [
    (0.0, 0.0, 0.0, 0.0),
    (0.5, -0.25, 0.125, 0.0),
    (0.0, 0.75, -0.5, 0.5),
    (-1.0, 0.0, 0.0, -0.25),
    (0.3, 0.7, -0.2, 1.5),
    (1.25, -0.6, 0.9, 0.0),
    (-0.45, 0.0, 1.1, 0.75),
    (2.0, 1.0, -1.5, -1.0),
    (1e-3, -2.5, 0.0, 0.1),
]


def _eval_csv_bytes(argv, tmp_path):
    """Bytes of the eval CSV of the build `argv` on EVAL_POINTS."""
    sol, pts, vals = (tmp_path / name for name in ("sol.json", "pts.csv", "vals.csv"))
    assert main(["build", *argv.split(" "), "--out", str(sol)]) == 0
    m = json.loads(sol.read_text())["m"]
    lines = [",".join([*(f"x{i}" for i in range(1, m + 1)), "t"])]
    lines += [",".join(map(repr, (*row[:m], row[3]))) for row in EVAL_POINTS]
    pts.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--solution", str(sol), "--points", str(pts),
                 "--out", str(vals)]) == 0
    return vals.read_bytes()


@pytest.mark.parametrize("argv", sorted(EVAL_DIGESTS))
def test_eval_output_is_pinned(argv, tmp_path):
    got = hashlib.sha256(_eval_csv_bytes(argv, tmp_path)).hexdigest()
    assert got == EVAL_DIGESTS[argv]
