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
residual's terms and the float sup-norms sampled from it) together with,
for parabolic builds, the component-condition report JSON.  A change to
how residuals are computed shows here.

EVAL_DIGESTS pins the bytes of `paradirac eval --out` for a third grid,
float builds included, on fixed points with zero coordinates and t = 0.
A change to how values are computed or written shows here.
"""

import hashlib
import json

import pytest

import paradirac
from paradirac.cli import _build_from_args, main, make_parser
from paradirac.serialize import check_report_to_dict, residual_report_to_dict
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
        '4f3af9a4bf57c965160ff97d806da6e401d2a2ededeb1a357bfdd6c917696bd8',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --backend float --seeds {"a0":[{"coeff":[0,1]}],"b0":"1","a2":"t","b2":[{"coeff":[0,-1],"n":1}]} --trunc 3':
        '73da0093d54a43178cec53796e9a968ff2a5ad83b1af4bb2e31fee722ef102a4',
}


REPORT_DIGESTS = {
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'b92d20b096265fbc94487b441c0e95aa1606d7ca44e126ff6f15a1837ad998f0',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'bc5a1694cf5fde59e419470f502d560d9b8254b47eec1013870e896d6897133f',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '0da4e1abbbc18e7a9e2693f6fb64ab3c5bbd61d0360dc474cce965fcab0f6871',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        '69f8a48c99e1d615eec1315948ebcf2d713ed2893ae708e964dc51423ed5292f',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '4ccc70e35c7ce9c06b46cf08dbc5ef776854af0a4a8fb960c8f56bb3ea5651ba',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        '42d2a343bcbf35c0934b08cfe47b88a2cdb8d4df0ce27aab158dccd06dd190d7',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'c12fc69063a70b8e0442ec91a9a0b9a30e72b4a982542ea254afcd8031ac3e4c',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'ace9a5354e1b1fc425dd453aa14a848ba3b7a7dce0716eff2acc3d860586d5d3',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'fd9c979579108858a788bc040e9833891b58cdbcc2f0300a3e311ef396e29f7f',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'f5e2b480176f3279aa610e7ae2c4d85e04bee109bb228c6f01419bc170bdb210',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '9bf121eeb19b585c26a871f5fdbbe294abed11e5f4aa41381b1aa7909c9ef38b',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 3':
        'dcf66f90ee28861c87cb1e2750e415d56d75be8456ab2de24379279d3071afc5',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 3':
        'f90e9c512418bccd8acce3fcc2945112e2bbab460dc9568feb71fa48f40af431',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '413359bd5cea2792732256ff2cf7720e5e1fe02025b9c0ed957aed635f6d3b1a',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '5d617387cfb544a0b87c1d162f27c59fc04334b1168bd2bd258cd865db4cf464',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '14715466f7b99591c9ea65719fae529dff588634395d2f346cbba4d811054206',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        '2a4efadcfb988d74bedf2640236cc1647008da8ef140be7b71bdbb360cab3013',
    '--mode helmholtz --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '3f9f68b1e6ec9416e6fae9342488aadb834d977c5be0845771705b05252cd37d',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '1547a83ba5254ab3d4bac513210aa3557596d0b3a7f8e8111fa3e11189fb891c',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        '4fe9ecc9dbecf90bc28a84516dd42221a03e9c68ac84e51444ccdc0d77a8fdbc',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '40ae34c2afd33793f961e945c119d5534db27616ee0c0262c80750149da2ce5f',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '7f0417a5f38c579c01ae668967ee67daa486a31453cf25e8b18b4f1d492e91e8',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        'e80daf6562a56cca41faaaababde1a907183e6acc75cbb1d263a767bf534a407',
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 5':
        '86f341ac88a6432887123dcaff557e68afb049316608b233e69404c706ee3187',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '79b40c0631cd75a8abf2b3e641faec8a320e3eb21bfdc8b7225723b735529c42',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 2,1,1,0 --trunc 5':
        '174ab5c5e98adc6c04b30cf77ad267a6a7eb9c783840f59bc076286bef73f6c6',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 1 --k 0 --basis-index 0 --profile exp:-1/2 --trunc 5':
        '8a80d12468aa4e467e5f27c16b580f59100b67a1a18b1fda6f1fbbc5f4050419',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        '12c7e0c63cf766e66618458dbf2eccc91bd642a10870d75c96495760606c3b78',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'bf4d5ce9125a6c67282574860522ee00bf36264aa1280a8ded5697994370a595',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'd2545ed4140af5b160b51cca92975dd851d332523bfb31f237fbf2e3859191ed',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'e53ecc48f75cd0b289af55304608881aa8e91af7dd45c898d99eadb190d42d6e',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        '1bcabd4639b439210ff1595970fdb2c194bff719cd7bd29b97d34312f1e20272',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'c856834a92971d97cb89850e8c4ea09ce1f2297ce84585bd35dae621ab9a8135',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '3d3e5e76d4802c43b8b90ff29caa662214d6db8b35debaa5ab4fa3b6a1155ce7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'dc4fd9bd0ccd7a3983ecbd568c5405da0b98d2da2e4259569c3dda178ec96bf8',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '267a5b00d166962fea5b7548802b0357d667cc10e9759337b1c0f3e0b58d32b0',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        'cd1ac6b014c369251a70a80936c0c5ffbb4c780debed922db69f03e2a45cf074',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 3':
        'd1528050f39e4b6ae4ade4724ec03cf5eaee9fe993a594fae395b5fcada4a611',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '17b4157e7d691deda5c8d48f20712573c6d041455fac6ce1d2633b808259ef7c',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 3':
        '8964bba90bcb6f6f6e934a57ce2bd20a3d64c595f540fd77327329cf836bedfc',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1/2 --trunc 3':
        'd86081929a9447c9a4ecd5f3b8387491a3e19e456fdd948426a6bda6a94a3b5f',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '806f00896e67c80e122bb8388b9d9cd90105655790f4f4cb38e412732d90d176',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        '01038e1b683861702e5a5b3d46b469a236a96d445a0fcc04f6197fb1c0476f41',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '4a82088948d61bc1e30360c077a87ce564eaf3f954113ac51934ee126ee5b5b0',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        '798e804f7bcd5970ca86c6aece5eed3a4a1c5d1c992bf5ba7158707ab90e539c',
    '--mode helmholtz --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        '7d16b1c5f67a8ede8241c1d76db4ff43ba964a3d1b5b9ffa5cb957179a6ec7b2',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'f520698fb01812a99cb8ed10eb1edc75d672c7c4c5b014691ac3a395ba1b3182',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        '4da75c3c946f27660c3303be6e55967868162231841801f224e5e4d600994a9c',
    '--mode gen-monogenic --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        'a5c11d23591a82b964d034aa8f918b041e16b31a1bdc24a7bc403fe60e22f110',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '7816487e8c1f2b6c38ee305f8b2b4c5491a1d189997213d9bcf922fefeab28fe',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        '09e0dbceae20956e37d161532e89e47cc1b580c8d3f0e17e3126ae79835523d3',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1/2,-1,3/4,2 --trunc 5':
        '6cc3e33a2f5d3e29d3731d15f4e85cb1d22c920b542a1cf2c45fb8d68ef1ec1d',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '11c135e50ed6768ad01ea1f28c0c1c9ead5de4f0c63b9e67fcdf158a8c89d235',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 2,1,1,0 --trunc 5':
        'e1f473bd4ab1901e64cc5873f950cec7d38b84873b8f6675522e252934166d6e',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 2 --k 1 --basis-index 1 --profile exp:-1/2 --trunc 5':
        '5f75ec66d0dc335d04cbb8fee3afaffbad0c795b1e1d0f21247e2035ad1ed7e7',
    '--mode parabolic-recurrence --m 2 --k 1 --basis-index 1 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        '0403a49152d0bce813b3f7da15674b4971fe932fc886d510f2852c0ee39a95ee',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        '024d381e16b7b0ed4fdae3f539de0f6ad4e8d48ab3aee8c99b5741d14ea15968',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '9e338fa25c38d1688a74a997daa4655c587a8b5d4c34f816435f61a8281aaa96',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'a7ef5d215fcb03274c36672d8da863f81d5fa56940e38f4d906a739a4fce6028',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'ffe6ed39d32cdd098f62c46a3dded70b7d368b7c7bf713cd22f54b80c8c64c11',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '01e688bad3aef4ab82c5e32aeca19fecbce67d535cb5986ca8170a9fd3d17439',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        '68ceb7b9263ad7ca7800f806bcbdf101820ff61a242fff043b61129df8adce30',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        'fa2f5e86e6ed45663967eb3b90c95e19d0d4b387e7f1f65bf60169c4c9f7f1fa',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b8cbec8cbfa0051f86fce354430fcb33bee440490d09081ffd772c5e67a11a8a',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'b351a390a987085b5a6eded7481074b51536537aa1db8368d06211bf54ac748f',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 3':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 3':
        '6a9ed1e367c012e9195cc1bae70053a663e44165f754080522aefdeff3ddbb80',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'c66ad6d66c25016c94dca729a1836fb2b0a442fd06c802abb1b8d275146596c6',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 3':
        'abe97c3731a51fb2bcda5b222fda545f52439dba2ebf2c970937152cb1aabcd5',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile poly:1,-2,1/2 --trunc 3':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:-1/2 --trunc 3':
        '76cf44bd18791b98c7ccd246563ecd73cec814e83cebcc3e0545d73a909d6c82',
    '--mode parabolic-recurrence --m 3 --k 2 --basis-index 4 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 3':
        '8271aedc0be4bd1e805844027908d42625bc17089d029971000ee0e277f4b068',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        '6e74355a9698dc5695c07acbfed3183b6fd03ab66242093d8cb21894a2051083',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'c14e8e58ed616dc902325372d00a5d8aad9fc5f3ee596019e888e3f532083254',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        'bc146e8a378dd30c2da98c1acf5a511e5cba61b164c13db67756473b24553fe9',
    '--mode helmholtz --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '0529fa9d1762c2aaefcbb291efa6fc539b105ac10034d8d986bef78a74f6a7b7',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        '5738b6e99524e602067e188aadf4a12ff2158ef1b77fb8989050e4682b6a9073',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'c1ee7e159c6a0e72af843bbe9bd0e70d103cd27cd168dc3d164adf625ea2f7f6',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        'a417567257de42210b15bff71535a8272d1601ced94d7a6b64f3b2264c7398fa',
    '--mode gen-monogenic --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '80cab7e84b62a7467af2dfbba08538e755446307e5139dd6a530742aa2a25a28',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        'd07943d2f0fe70c5c3f18245d6e1a69bf44607fa270e28614b73d307ab289df1',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        'a3447b6135ff32eec9187e6621ec885ffc8746cf1313fa918d3f08fac7bc6a9b',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        '5d4b2eb5167b3ae58c68a4f1e6785621ab7fa2e211a1cbab4d9454e36df6bc70',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 5':
        '37a89373ce9b1e283bd37f582baedd1824cf443b03b670b9bfbab73136562205',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1/2,-1,3/4,2 --trunc 5':
        'abd225f19c5d7c7a194f2319dcf570681d356cdaaf615a527760f5ee92a6b7e5',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 5':
        '84553a50e3fad33e4ec347acbe281e736e6beb8aa25cf473d20ec435e3a2e55e',
    '--mode gen-invertible --m 3 --k 2 --basis-index 4 --zeta 2,1,1,0 --trunc 5':
        '628580d383a0a5f244ad9d4ac12b9304524b884aa033329161f21957c6b18e18',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile poly:1,-2,1/2 --trunc 5':
        'c7894fac150ab6508f2a54a4a3afb5e7f4b8f3db8bc30239984caa6ed537edf3',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:-1/2 --trunc 5':
        'ebd32b0675500f198c6389a8e0946fbe51e464810b7dec765f40b9d7de79abc9',
    '--mode parabolic-recurrence --m 3 --k 2 --basis-index 4 --seeds {"a0":"t^2","b0":"poly:1,1/3","a2":"1","b2":"exp:1/2"} --trunc 5':
        'b6b92e52575380f6e30064fcd07c66d09cf335cb44b09ed646fd3e074558e790',
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


# Each key is the argument list of one `paradirac build` run; the value is
# the sha256 of the CSV that `paradirac eval --out` writes for it on the
# points of EVAL_POINTS.  The grid covers both backends, every mode,
# polynomial, decaying and oscillating profiles, rational and Gaussian
# zeta and m = 1..3.
EVAL_DIGESTS = {
    '--mode gen-factored --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 4 --backend float':
        'f55631534180c14e57c5d53a0f8f4cce0563db80c29430a28e5524adf8eabf49',
    '--mode gen-factored --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        '51f9523956ab3ecb891a5e8e5c2d5f3fa0cbf00baf611e1ed09e27fff53f5dec',
    '--mode gen-factored --m 3 --k 2 --basis-index 4 --zeta 1,2,1/2,1 --trunc 2 --backend float':
        '5d0e81aa9fb98989c84a587ffafdf5ac149c0b233932f2b15407aeb96f5273fb',
    '--mode gen-invertible --m 1 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b6d90a025d3dafc80d9ad4b740d65a385f1f543818704d3df3038d98949da994',
    '--mode gen-invertible --m 2 --k 1 --basis-index 1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3 --backend float':
        '28cf94e5a7269b80363d0dc4f7a467b603979036eab08811777213ee35f1d499',
    '--mode gen-invertible --m 3 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 3':
        'a4f6d2336a7d71620af64e10263c2ef17e66f0a4cbf006772937306f1be8ec47',
    '--mode gen-monogenic --m 1 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 4':
        'a195091a94f054acaa58fd8a9c139220536d9008123c67374f9c04ff60480cad',
    '--mode gen-monogenic --m 2 --k 0 --basis-index 0 --zeta 1/2,-1,3/4,2 --trunc 4 --backend float':
        '9662814bb0f672f40be541b51aad25161e6a140967055327393e55085cbd84fb',
    '--mode gen-monogenic --m 2 --k 0,1 --basis-index 0,1 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3':
        'b17fd084d38f282987e67b7639144b72c8980b6585c8dc5749fb64818695c356',
    '--mode gen-monogenic --m 3 --k 0 --basis-index 0 --zeta 1,1/2,0,-1,2/3,0,1,1 --trunc 3 --backend float':
        '3dc7f48c4ff8a55fac2f90bcd2e252eccc9108577a7fd73e8462e9f0da7990b9',
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
        '8fdf1528604a6ce9a5e72260767ec0560904b58d3e690f153dd520cc75710fd2',
    '--mode parabolic-closed --m 3 --k 0 --basis-index 0 --profile exp:-1 --trunc 3 --backend float':
        '80732eeb6e5b03fa093c4db720d509119dad8677e69f8880d0c658e265eb4592',
    '--mode parabolic-closed --m 3 --k 1 --basis-index 0 --profile poly:0,1,1/3 --trunc 3':
        '3e9b4559b8e9b8de58a39d8927cf15a1f3abed76310bcaf8f1ed7d613124dcee',
    '--mode parabolic-closed --m 3 --k 2 --basis-index 4 --profile exp:0:1 --trunc 3':
        '807b4f9907293b8a4e5309f153fdcb7175b9dce2f4aa03bd7b9f146e2ddbaf4a',
    '--mode parabolic-recurrence --m 1 --k 0 --basis-index 0 --seeds {"a0":"exp:-1","b2":"t"} --trunc 3 --backend float':
        'f862d4cce6dd329a955b6491bdc4243593924d0ed94adce6e792f61e70befc72',
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
