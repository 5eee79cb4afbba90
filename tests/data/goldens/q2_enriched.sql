SELECT DISTINCT e1.Sr AS SRC, e1.Tr AS TRG
  FROM (SELECT DISTINCT s1.Sr AS Sr, s3.Tr AS Tr FROM knows AS s1 JOIN workAt AS s2 ON s1.Tr = s2.Sr JOIN (SELECT Sr FROM Organisation) AS n2 ON n2.Sr = s2.Tr JOIN isLocatedIn AS s3 ON s2.Tr = s3.Sr) AS e1;
